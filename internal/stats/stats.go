// Package stats provides the small statistical summaries the experiment
// harness needs to aggregate multi-seed runs (the paper averages each
// point over 10 random-generator seeds).
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.Sum() / float64(len(s.xs))
}

// Sum returns the sum of the observations, added in arrival order.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

// Max returns the largest observation, or NaN when empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// for fewer than two observations.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(len(s.xs)))
}

// t95 holds the two-sided 95% Student-t critical values for 1..29
// degrees of freedom (index df-1). At the paper's n=10 the normal
// approximation's 1.96 understates the half-width by ~15% (t_9 = 2.262),
// so small samples use the exact table.
var t95 = [29]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// tCritical95 returns the two-sided 95% critical value for df degrees of
// freedom: exact Student-t up to df=29 (n=30), the normal 1.96 above.
func tCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// CI95 returns the half-width of a 95% confidence interval for the mean:
// Student-t critical value times the standard error. With fewer than two
// observations there is no spread estimate and the half-width is 0.
func (s *Sample) CI95() float64 { return tCritical95(s.N()-1) * s.StdErr() }

// String summarises the sample as "mean ± ci95 (n=N)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean(), s.CI95(), s.N())
}
