package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netoblivious/internal/obs"
)

// TestOneExecutionPerKey: the trace, dbsp and cache analyses of one
// (algorithm, n, engine) share one recorded run, whichever kind asks
// first — the run is executed exactly once.
func TestOneExecutionPerKey(t *testing.T) {
	ctx := context.Background()
	for _, order := range [][]Kind{{KindTrace, KindDBSP, KindCache}, {KindCache, KindTrace}} {
		srv, c := newTestServer(t, Config{Workers: 2})
		for _, kind := range order {
			resp, err := c.Analyze(ctx, Request{Algorithm: "fft", N: 256, Kind: kind, Wait: true})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != string(StatusDone) || resp.Document == nil {
				t.Fatalf("order %v, kind %s: status %q", order, kind, resp.Status)
			}
		}
		if m := srv.traces.Stats().Misses; m != 1 {
			t.Errorf("order %v: %d trace-store misses, want exactly 1", order, m)
		}
	}
}

// TestSummaryKindsNeverReloadSpilledRuns: under a 1-byte budget every run
// spills as soon as it is stored.  The trace and dbsp analyses are served
// from the spill index's resident summary and leave the reload counter
// alone; only the cache analysis, which reads the pairs, pages the run
// back in.
func TestSummaryKindsNeverReloadSpilledRuns(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2, TraceMemBudget: 1, TraceSpillDir: t.TempDir()})
	ctx := context.Background()
	analyze := func(req Request) {
		t.Helper()
		req.Algorithm, req.N, req.Wait = "matmul", 64, true
		resp, err := c.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != string(StatusDone) || resp.Document == nil {
			t.Fatalf("%s: status %q: %s", req.Kind, resp.Status, resp.Error)
		}
	}
	spill := func() (spills, reloads int64) {
		st, ok := srv.traces.SpillStats()
		if !ok {
			t.Fatal("budgeted server is not using a spilling trace store")
		}
		return st.Spills, st.Reloads
	}
	analyze(Request{Kind: KindTrace})
	if spills, _ := spill(); spills != 1 {
		t.Fatalf("spills = %d after the first run, want 1", spills)
	}
	analyze(Request{Kind: KindDBSP})
	analyze(Request{Kind: KindTrace, Machines: []MachineSpec{{P: 4, Sigma: 2}}})
	if _, reloads := spill(); reloads != 0 {
		t.Errorf("trace/dbsp of a spilled run reloaded it %d times, want 0", reloads)
	}
	analyze(Request{Kind: KindCache})
	if _, reloads := spill(); reloads != 1 {
		t.Errorf("cache of a spilled run: %d reloads, want 1", reloads)
	}
	// The summary-served lookups count as trace-cache hits.
	if st := srv.traces.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("trace cache %+v, want 2 hits (index) and 2 misses (run, reload)", st)
	}
}

// TestCachedHitWritesEncodedBody: a result-cache hit is answered with the
// bytes writeJSON renders for the hit response, encoded once per entry
// rather than per request.
func TestCachedHitWritesEncodedBody(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	req := Request{Algorithm: "fft", N: 256, Kind: KindDBSP, Wait: true}
	if _, err := c.Analyze(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return rec
	}
	got := serve()
	if got.Code != http.StatusOK {
		t.Fatalf("cached hit: HTTP %d: %s", got.Code, got.Body.String())
	}
	norm := req
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	res, err, ok := srv.results.Peek(srv.requestKey(norm))
	if !ok || err != nil {
		t.Fatalf("result cache holds no document for the key (ok=%v, err=%v)", ok, err)
	}
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, Response{Schema: ResponseSchema, Status: string(StatusDone), Cached: true, Document: res.doc})
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("cached hit body differs from writeJSON of the same response:\n got %q\nwant %q", got.Body.String(), want.Body.String())
	}
	if ct := got.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	// Encoding the document by reflection on every hit cost 127-322
	// allocations per request (cache to trace kinds); the pre-encoded
	// path keeps only the request's own, about 55.
	const maxAllocs = 80
	if allocs := testing.AllocsPerRun(200, func() { serve() }); allocs > maxAllocs {
		t.Errorf("cached hit allocates %.0f times per request, want <= %d", allocs, maxAllocs)
	}
}

// TestTotalSeriesAreCounters: every registered series whose name ends in
// _total — request, job, cache, spill and cluster counters — renders as
// a counter, in the registry snapshot and in the Prometheus text.
func TestTotalSeriesAreCounters(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.TraceMemBudget = 1
		cfg.TraceSpillDir = t.TempDir()
	})
	ctx := context.Background()
	entry := nodes[0]
	for _, owner := range []int{0, 1} {
		if _, err := entry.c.Analyze(ctx, requestOwnedBy(t, nodes, owner)); err != nil {
			t.Fatal(err)
		}
	}
	snap := entry.srv.metrics.reg.Snapshot()
	totals := 0
	for _, f := range snap.Families {
		if strings.HasSuffix(f.Name, "_total") {
			totals++
			if f.Type != obs.TypeCounter {
				t.Errorf("%s registered as %s, want counter", f.Name, f.Type)
			}
		}
	}
	// requests, four job counters, three per cache tier (results, traces,
	// replicas), spills, reloads and cluster forwards at the least.
	if totals < 17 {
		t.Errorf("only %d _total families registered; the check covers too little", totals)
	}
	var text bytes.Buffer
	if err := obs.WritePrometheus(&text, snap); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasSuffix(f[2], "_total") && f[3] != "counter" {
			t.Errorf("Prometheus text: %s", line)
		}
	}
}
