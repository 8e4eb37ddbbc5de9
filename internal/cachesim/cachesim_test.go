package cachesim

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/fft"
	_ "netoblivious/internal/prefix"
)

// serviceSweep is the miss-curve sweep nobld serves for the cache kind
// (service.cacheSweepSizes), with its ctxWords = B = 8.
var serviceSweep = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}

// recordAlg runs a registered algorithm recorded on eng.
func recordAlg(tb testing.TB, name string, n int, eng core.Engine) *core.Trace {
	tb.Helper()
	a, ok := alg.ByName(name)
	if !ok {
		tb.Fatalf("algorithm %q not registered", name)
	}
	r, err := a.Run(context.Background(), alg.Spec{Engine: eng, Record: true}, n)
	if err != nil {
		tb.Fatal(err)
	}
	return r.Trace
}

// binaryRoundTrip encodes tr in the NOBTRC01 format and returns a source
// decoding it back.
func binaryRoundTrip(tb testing.TB, tr *core.Trace) core.TraceSource {
	tb.Helper()
	var buf bytes.Buffer
	w := core.NewTraceBinaryWriter(&buf)
	if err := w.BeginTrace(tr.V, tr.LogV); err != nil {
		tb.Fatal(err)
	}
	for _, rec := range tr.Steps {
		if err := w.WriteStep(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.EndTrace(nil); err != nil {
		tb.Fatal(err)
	}
	src, err := core.NewTraceBinaryReader(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

func TestCacheBasics(t *testing.T) {
	c, err := New(4, 2) // 2 lines of 2 words
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0) // miss: line 0
	c.Access(1) // hit
	c.Access(2) // miss: line 1
	c.Access(0) // hit
	c.Access(4) // miss: line 2 evicts LRU (line 1)
	c.Access(2) // miss again
	if c.Misses != 4 {
		t.Errorf("misses = %d, want 4", c.Misses)
	}
	if c.Accesses != 6 {
		t.Errorf("accesses = %d, want 6", c.Accesses)
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("want error for M=0")
	}
	if _, err := New(7, 2); err == nil {
		t.Error("want error for B not dividing M")
	}
}

// TestSequentialScan: a cold scan of W words misses exactly W/B times.
func TestSequentialScan(t *testing.T) {
	c, err := New(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.AccessRange(0, 512)
	if c.Misses != 64 {
		t.Errorf("scan misses = %d, want 64", c.Misses)
	}
}

// TestLRUWorkingSet: a loop over a working set that fits misses only on
// the first pass.
func TestLRUWorkingSet(t *testing.T) {
	c, err := New(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 10; pass++ {
		c.AccessRange(0, 64)
	}
	if c.Misses != 8 {
		t.Errorf("misses = %d, want 8 (first pass only)", c.Misses)
	}
}

// TestSimulateTraceNeedsPairs rejects traces without message recording.
func TestSimulateTraceNeedsPairs(t *testing.T) {
	tr, err := core.Run(4, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(64, 8)
	if _, err := SimulateTrace(tr, 4, c); err == nil {
		t.Error("want error for missing Pairs")
	}
}

// TestSimulateTraceReportsPerCallDeltas is the regression test for the
// cumulative-counter bug: SimulateTrace used to return the cache's
// lifetime Misses/Accesses, so a reused Cache silently conflated runs.
// Two simulations through one cache must report per-call deltas — the
// second warm run sees fewer (or equal) misses, and the deltas sum to
// the cache's cumulative counters.
func TestSimulateTraceReportsPerCallDeltas(t *testing.T) {
	tr, err := core.RunOpt(8, func(vp *core.VP[int]) {
		for step := 0; step < 4; step++ {
			vp.Send(vp.ID()^1, 1)
			vp.Sync(0)
		}
	}, core.Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(1<<10, 8) // big enough that the working set stays warm
	if err != nil {
		t.Fatal(err)
	}
	first, err := SimulateTrace(tr, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SimulateTrace(tr, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accesses != second.Accesses {
		t.Errorf("same trace, different access counts: %d vs %d", first.Accesses, second.Accesses)
	}
	if first.Misses == 0 {
		t.Fatal("first (cold) run reported zero misses")
	}
	if second.Misses > first.Misses {
		t.Errorf("warm rerun reported more misses (%d) than the cold run (%d)", second.Misses, first.Misses)
	}
	if got := first.Misses + second.Misses; got != c.Misses {
		t.Errorf("per-call deltas sum to %d, cumulative counter is %d", got, c.Misses)
	}
	if got := first.Accesses + second.Accesses; got != c.Accesses {
		t.Errorf("per-call access deltas sum to %d, cumulative counter is %d", got, c.Accesses)
	}
}

// TestMissCurveMonotone: misses cannot increase with cache size on the
// same trace (LRU inclusion property for a fixed B).
func TestMissCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	res, err := fft.Transform(x, fft.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{64, 256, 1024, 4096}
	curve, err := MissCurve(res.Trace, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("miss curve not monotone: %v", curve)
		}
	}
}

// TestMissCurveGolden: the single-pass CurveSim must agree exactly with
// the per-size re-simulation it replaced, across sweeps with unsorted
// and duplicate sizes, for several recorded traces.
func TestMissCurveGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	traces := map[string]*core.Trace{}
	{
		n := 256
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		res, err := fft.Transform(x, fft.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		traces["fft-recursive"] = res.Trace
		it, err := fft.TransformIterative(x, fft.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		traces["fft-iterative"] = it.Trace
	}
	{
		tr, err := core.RunOpt(16, func(vp *core.VP[int]) {
			for step := 0; step < 6; step++ {
				vp.Send(vp.ID()^(1<<(step%4)), step)
				vp.Sync(3 - step%4)
			}
		}, core.Options{RecordMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		traces["xor-mesh"] = tr
	}
	sweeps := [][]int{
		{64},
		{64, 256, 1024, 4096},
		{4096, 64, 1024, 256},    // unsorted
		{256, 64, 256, 4096, 64}, // duplicates
		{8, 16, 24, 32, 1 << 20}, // tiny through larger-than-footprint
	}
	for name, tr := range traces {
		for _, sizes := range sweeps {
			want, err := missCurveReference(tr, 4, 8, sizes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MissCurve(tr, 4, 8, sizes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s sizes=%v: single-pass curve %v, reference %v", name, sizes, got, want)
					break
				}
			}
		}
	}
	t.Run("service-parameters", testMissCurveGoldenServiceParameters)
}

// testMissCurveGoldenServiceParameters extends the golden equality to
// the parameters nobld serves and to the corners of the line-indexed
// stack: a single-line capacity (a size equal to B), a context spanning
// at least three lines, recordings of one algorithm on the block and
// the replay engine (which order a superstep's pairs differently), and
// a trace read back through the NOBTRC01 binary codec.
func testMissCurveGoldenServiceParameters(t *testing.T) {
	type config struct {
		ctxWords, bWords int
		sizes            []int
	}
	service := config{8, 8, serviceSweep}
	corners := []config{
		service,
		{8, 8, []int{8, 64, 8, 4096}},    // single-line capacity, duplicated
		{20, 8, []int{8, 256, 2048, 64}}, // a context spans three or four lines
		{20, 4, []int{4, 12, 1 << 14}},
	}
	traces := []struct {
		name    string
		tr      *core.Trace
		configs []config
	}{
		{"fft n=256 block", recordAlg(t, "fft", 256, core.BlockEngine{}), corners},
		{"fft n=256 replay", recordAlg(t, "fft", 256, core.ReplayEngine{Store: core.NewScheduleStore()}), corners},
		{"prefix-tree n=8192 block", recordAlg(t, "prefix-tree", 8192, core.BlockEngine{}), []config{service}},
	}
	for _, tc := range traces {
		for _, c := range tc.configs {
			want, err := missCurveReference(tc.tr, c.ctxWords, c.bWords, c.sizes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MissCurve(tc.tr, c.ctxWords, c.bWords, c.sizes)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s ctx=%d B=%d sizes=%v: single-pass curve %v, reference %v", tc.name, c.ctxWords, c.bWords, c.sizes, got, want)
			}
			decoded, err := MissCurveSource(binaryRoundTrip(t, tc.tr), c.ctxWords, c.bWords, c.sizes)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(decoded, want) {
				t.Errorf("%s ctx=%d B=%d sizes=%v via NOBTRC01: curve %v, reference %v", tc.name, c.ctxWords, c.bWords, c.sizes, decoded, want)
			}
		}
	}
}

// TestCurveSimRejectsPairsOutsideMachine: a decoded trace naming a VP
// beyond v is an error, not an out-of-range access.
func TestCurveSimRejectsPairsOutsideMachine(t *testing.T) {
	cs, err := NewCurveSim(4, 8, 8, serviceSweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int32{{0, 4}, {4, 0}, {-1, 0}} {
		rec := core.StepRec{Label: 0, Degree: []int64{0, 1, 1}, Messages: 1, Pairs: core.PairListOf([][2]int32{pair})}
		if err := cs.Step(&rec); err == nil {
			t.Errorf("pair %v on v=4: want an error", pair)
		}
	}
}

// TestCurveSimStepAllocs: once the per-source buckets have grown to a
// superstep's fan-out, folding it in allocates nothing.
func TestCurveSimStepAllocs(t *testing.T) {
	tr := recordAlg(t, "fft", 256, core.BlockEngine{})
	cs, err := NewCurveSim(tr.V, 8, 8, serviceSweep)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Steps {
		if err := cs.Step(&tr.Steps[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range tr.Steps {
		rec := &tr.Steps[i]
		if allocs := testing.AllocsPerRun(5, func() {
			if err := cs.Step(rec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("step %d: %.1f allocations per Step, want 0", i, allocs)
		}
	}
}

// BenchmarkCurveSim measures the cache analysis layer on the sweep nobld
// serves: a recorded prefix-tree trace at v = 16384 folded into one
// CurveSim per iteration.
func BenchmarkCurveSim(b *testing.B) {
	tr := recordAlg(b, "prefix-tree", 1<<14, core.BlockEngine{})
	b.ReportAllocs()
	b.ResetTimer()
	var accesses int64
	for i := 0; i < b.N; i++ {
		cs, err := NewCurveSim(tr.V, 8, 8, serviceSweep)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Steps {
			if err := cs.Step(&tr.Steps[j]); err != nil {
				b.Fatal(err)
			}
		}
		accesses += cs.Accesses()
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

// TestCurveSimAccesses: every size of a sweep shares one address
// stream, so CurveSim's access count must match a plain simulation's.
func TestCurveSimAccesses(t *testing.T) {
	tr, err := core.RunOpt(8, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	}, core.Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCurveSim(tr.V, 4, 8, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Steps {
		if err := cs.Step(&tr.Steps[i]); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := New(64, 8)
	st, err := SimulateTrace(tr, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Accesses() != st.Accesses {
		t.Errorf("CurveSim accesses %d, SimulateTrace %d", cs.Accesses(), st.Accesses)
	}
	if cs.Words() != st.Words {
		t.Errorf("CurveSim words %d, SimulateTrace %d", cs.Words(), st.Words)
	}
}

// TestSection6Conjecture: the recursive FFT's sequential simulation incurs
// no more misses than the iterative butterfly's across a band of cache
// sizes — fine superstep labels become cache locality, the mechanism of
// the paper's Section 6 conjecture.
func TestSection6Conjecture(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 10
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	rec, err := fft.Transform(x, fft.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	it, err := fft.TransformIterative(x, fft.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{128, 512, 2048}
	curveRec, err := MissCurve(rec.Trace, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	curveIt, err := MissCurve(it.Trace, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-access miss rates: the two algorithms touch different
	// total word counts, so normalize.
	var accRec, accIt float64
	{
		c1, _ := New(1<<20, 8)
		st, _ := SimulateTrace(rec.Trace, 4, c1)
		accRec = float64(st.Accesses)
		c2, _ := New(1<<20, 8)
		st2, _ := SimulateTrace(it.Trace, 4, c2)
		accIt = float64(st2.Accesses)
	}
	for i, m := range sizes {
		rRec := float64(curveRec[i]) / accRec
		rIt := float64(curveIt[i]) / accIt
		// The rates must stay comparable (same Θ); the recursive
		// variant's 3-transpose substitution costs a constant factor of
		// absolute traffic but not an asymptotic rate penalty.
		if rRec > rIt*1.5 {
			t.Errorf("M=%d: recursive miss rate %.4f worse than iterative %.4f", m, rRec, rIt)
		}
	}
}
