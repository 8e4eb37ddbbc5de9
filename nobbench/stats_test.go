package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		v, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
		if c.ok && v != math.Ceil(c.q*float64(c.n)) {
			t.Errorf("p%g of 1..%d = %v, want nearest rank %v", c.q*100, c.n, v, math.Ceil(c.q*float64(c.n)))
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must fail")
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// definition of the spread the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median(1..10) = %v", m)
	}
}

// Windows with enough samples are reduced by median; otherwise the
// samples are pooled.
func TestWindowedPercentile(t *testing.T) {
	slow := seq(100)
	for i := range slow {
		slow[i] *= 10
	}
	got, err := windowedPercentile([][]float64{seq(100), seq(100), slow}, 0.5)
	if err != nil || got != 50 {
		t.Errorf("median of per-window medians = %v, %v; want 50", got, err)
	}
	got, err = windowedPercentile([][]float64{seq(15), seq(15)}, 0.5)
	if err != nil || got != 8 {
		t.Errorf("pooled median of two 15-sample windows = %v, %v; want 8", got, err)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(parent))
	for i, x := range parent {
		faster[i] = x * 0.8
	}
	if v := verdict(parent, faster, true, 0.1); v != "better" {
		t.Errorf("20%% lower latency on every pair: %s, want better", v)
	}
	if v := verdict(faster, parent, true, 0.1); v != "worse" {
		t.Errorf("20%% higher latency on every pair: %s, want worse", v)
	}
	if v := verdict(parent, parent, true, 0.1); v != "unresolved" {
		t.Errorf("identical runs: %s, want unresolved", v)
	}
}
