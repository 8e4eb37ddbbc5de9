package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the choosing-metrics rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1), or
// an error when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// windowedPercentile is the median over windows of each window's
// q-quantile when every window holds enough samples for it, and the
// q-quantile of all samples pooled otherwise.
func windowedPercentile(windows [][]float64, q float64) (float64, error) {
	var per, pooled []float64
	for _, w := range windows {
		pooled = append(pooled, w...)
		if v, err := percentile(w, q); err == nil {
			per = append(per, v)
		}
	}
	if len(per) > 0 && len(per) == len(windows) {
		return median(per), nil
	}
	return percentile(pooled, q)
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (exclusive
// method), the definition the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
