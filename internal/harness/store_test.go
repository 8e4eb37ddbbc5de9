package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// TestTraceStoreSharesExecutions runs the full quick suite against one
// store and asserts the acceptance criterion of the pipeline refactor:
// the (algorithm, n) overlap between experiments — E1/E2 share the
// matmul traces with E8/E9/E10/E12, E13 shares the sort traces, and so
// on — is served from cache, not recomputed.
func TestTraceStoreSharesExecutions(t *testing.T) {
	store := NewTraceStore()
	recs, err := RunSuite(Config{Quick: true, Store: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	st := store.Stats()
	if st.Hits < 1 {
		t.Errorf("trace store recorded %d hits over the full quick suite; want >= 1 (duplicate executions not eliminated)", st.Hits)
	}
	if st.Misses < 1 {
		t.Error("trace store recorded no misses; store not exercised")
	}
	if st.Misses != int64(storeLen(store)) {
		t.Errorf("misses (%d) != distinct keys (%d): single-flight accounting broken", st.Misses, storeLen(store))
	}
	t.Logf("trace store: %d hits, %d misses (hit rate %.0f%%)", st.Hits, st.Misses, 100*st.HitRate())
}

func storeLen(ts *TraceStore) int { return ts.store.Len() }

// TestCoreStoreSingleFlight hammers one key from many goroutines: the
// compute function must run exactly once and every caller must observe
// its value; a second key must recompute.
func TestCoreStoreSingleFlight(t *testing.T) {
	s := core.NewStore[int]()
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Get("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 31 {
		t.Errorf("stats = %+v, want 1 miss / 31 hits", st)
	}

	// Errors are cached too: same outcome for every caller.
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := s.Get("bad", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
			t.Errorf("cached error lost: %v", err)
		}
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

// TestTraceStoreKeysByEngine asserts runs on different engines never
// alias, and that the trace key renders its canonical form.
func TestTraceStoreKeysByEngine(t *testing.T) {
	store := NewTraceStore()
	a, err := store.Get(context.Background(), core.GoroutineEngine{}, "broadcast-tree", 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Get(context.Background(), core.BlockEngine{}, "broadcast-tree", 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace == b.Trace {
		t.Error("different engines shared one memoized run")
	}
	if st := store.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one per engine)", st.Misses)
	}
	if _, err := store.Get(context.Background(), nil, "no-such-alg", 8); err == nil {
		t.Error("unknown algorithm accepted")
	}
	key := core.TraceKey{Algorithm: "fft", N: 256, Engine: "block"}
	if key.String() != "fft/n=256@block" {
		t.Errorf("TraceKey.String() = %q", key.String())
	}
}

// TestRecordedTracesAreCompact: a retained recorded trace costs about
// what the spill budget charges for it (traceBytes: 8 bytes per pair
// plus the step records), not the pooled 4096-pair chunks each worker
// records a superstep into.  stencil1 has many supersteps with few
// messages each, sort fewer and fuller ones.
func TestRecordedTracesAreCompact(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"stencil1", 128}, {"sort", 256}} {
		a, ok := TraceAlgorithmByName(tc.name)
		if !ok {
			t.Fatalf("unknown algorithm %q", tc.name)
		}
		before := heapAfterGC()
		run, err := a.Run(context.Background(), alg.Spec{Engine: core.BlockEngine{}, Record: true}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		retained := heapAfterGC() - before
		est := traceBytes(run.Trace)
		runtime.KeepAlive(run)
		if limit := 2*est + 256<<10; retained > limit {
			t.Errorf("%s n=%d: recorded trace retains %d B of heap, want <= %d (2 x %d B estimate + 256 KiB)",
				tc.name, tc.n, retained, limit, est)
		}
		t.Logf("%s n=%d: retained %d B, estimate %d B", tc.name, tc.n, retained, est)
	}
}

// heapAfterGC returns the live heap after two collections, the second of
// which also empties the sync.Pool victim caches.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
