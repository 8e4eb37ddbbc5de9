package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netoblivious/internal/core"
)

// TestSpillingTraceStoreRoundTrip: a budget far below the working set
// forces every run to spill; revisiting a spilled key pages the exact
// same trace back in (byte-identical JSON encoding) with its metadata,
// without re-executing — distinguishable because reloads are counted.
func TestSpillingTraceStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewSpillingTraceStore(1, dir) // 1 byte: nothing stays resident
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ref, err := NewTraceStore().Get(ctx, nil, "fft", 64)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ts.Get(ctx, nil, "fft", 64)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ts.Get(ctx, nil, "fft", 64)
	if err != nil {
		t.Fatal(err)
	}
	var want, got1, got2 bytes.Buffer
	if err := ref.Trace.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := first.Trace.EncodeJSON(&got1); err != nil {
		t.Fatal(err)
	}
	if err := second.Trace.EncodeJSON(&got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got1.Bytes()) {
		t.Error("first spilled-store run differs from the reference trace")
	}
	if !bytes.Equal(want.Bytes(), got2.Bytes()) {
		t.Error("reloaded run differs from the reference trace")
	}
	st, ok := ts.SpillStats()
	if !ok {
		t.Fatal("SpillStats reported non-spilling store")
	}
	if st.Spills < 1 {
		t.Errorf("spills = %d, want >= 1 (budget of 1 byte keeps nothing resident)", st.Spills)
	}
	if st.Reloads < 1 {
		t.Errorf("reloads = %d, want >= 1 (second Get must page in, not re-run)", st.Reloads)
	}
	if st.UsedBytes < 0 {
		t.Errorf("used bytes went negative: %d", st.UsedBytes)
	}
	// The spill files exist, are complete (footer validates on read), and
	// no temporary siblings are left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temporary spill file %s", e.Name())
		}
		files++
		src, err := core.OpenTraceFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("opening spill file %s: %v", e.Name(), err)
		}
		if _, err := core.ReadAll(src); err != nil {
			t.Errorf("spill file %s does not decode: %v", e.Name(), err)
		}
		src.Close()
	}
	if files < 1 {
		t.Error("no spill files written")
	}
}

// TestSpillingTraceStorePreservesMetadata: PeakEntries lives only in the
// spill index (the binary format stores steps, not run metadata), so a
// reload must restore it.
func TestSpillingTraceStorePreservesMetadata(t *testing.T) {
	ts, err := NewSpillingTraceStore(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := NewTraceStore().Get(ctx, nil, "matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	if ref.PeakEntries == 0 {
		t.Fatal("matmul run reported no PeakEntries; test needs an algorithm with the metric")
	}
	if _, err := ts.Get(ctx, nil, "matmul", 16); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ts.Get(ctx, nil, "matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.PeakEntries != ref.PeakEntries {
		t.Errorf("reloaded PeakEntries = %d, want %d", reloaded.PeakEntries, ref.PeakEntries)
	}
}

// TestSpillingTraceStoreKeepsHotRunsResident: with a budget that fits
// the working set, nothing spills and hits are served from memory.
func TestSpillingTraceStoreKeepsHotRunsResident(t *testing.T) {
	ts, err := NewSpillingTraceStore(64<<20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := ts.Get(ctx, nil, "fft", 64); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := ts.SpillStats()
	if st.Spills != 0 {
		t.Errorf("spills = %d, want 0 under a 64 MiB budget", st.Spills)
	}
	if st.Resident != 1 {
		t.Errorf("resident = %d, want 1", st.Resident)
	}
	if hits := ts.Stats().Hits; hits < 2 {
		t.Errorf("store hits = %d, want >= 2 (repeat Gets served from memory)", hits)
	}
}

// TestSpillingTraceStoreConcurrentSummaries: goroutines mixing Summary
// and Get over a few keys, under a budget that keeps spilling them, all
// see each key's one summary and a trace that agrees with it.
func TestSpillingTraceStoreConcurrentSummaries(t *testing.T) {
	ts, err := NewSpillingTraceStore(4<<10, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"fft", "bitonic", "prefix-tree"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				name := names[(g+i)%len(names)]
				sum, err := ts.Summary(ctx, nil, name, 64)
				if err != nil {
					t.Error(err)
					return
				}
				if (g+i)%3 != 0 {
					continue
				}
				run, err := ts.Get(ctx, nil, name, 64)
				if err != nil {
					t.Error(err)
					return
				}
				if run.Trace.NumSupersteps() != sum.Fold.NumSupersteps() || run.Trace.TotalMessages() != sum.Fold.TotalMessages() {
					t.Errorf("%s: trace (%d steps, %d messages) disagrees with its summary (%d, %d)", name,
						run.Trace.NumSupersteps(), run.Trace.TotalMessages(), sum.Fold.NumSupersteps(), sum.Fold.TotalMessages())
				}
			}
		}(g)
	}
	wg.Wait()
	if st, _ := ts.SpillStats(); st.Spills == 0 {
		t.Error("no run spilled; the budget does not exercise the spill index")
	}
}

// TestSpillingTraceStoreRejectsBadConfig: a nonpositive budget is a
// configuration error, not a silent unbounded store.
func TestSpillingTraceStoreRejectsBadConfig(t *testing.T) {
	if _, err := NewSpillingTraceStore(0, t.TempDir()); err == nil {
		t.Error("want error for budget 0")
	}
	if _, err := NewSpillingTraceStore(-5, t.TempDir()); err == nil {
		t.Error("want error for negative budget")
	}
}
