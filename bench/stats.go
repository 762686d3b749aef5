package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles when even),
// 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) (the default exclusive method)
// does — the contract's spread is defined through that function. It
// needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4 // taken after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against. Fewer than two
// values, or a zero median, give 0.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// tailStat summarises per-operation timings the way the metrics guide
// asks: the median, plus the highest percentile that still has at least
// ten samples beyond it (so the tail figure is never one outlier), with
// that percentile and the sample count stated. With too few samples for
// any tail above the median, the tail is the median itself (pct 50).
type tailStat struct {
	p50, hi, hiPct float64
	n              int
}

func tailOf(samples []float64) tailStat {
	n := len(samples)
	if n == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tailStat{p50: median(s), n: n}
	t.hi, t.hiPct = t.p50, 50
	if idx := n - 11; idx > n/2 {
		t.hi, t.hiPct = s[idx], 100*float64(n-10)/float64(n)
	}
	return t
}
