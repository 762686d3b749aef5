package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func add(s *Sample, xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func TestEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatal("N != 0")
	}
	for name, v := range map[string]float64{"mean": s.Mean(), "max": s.Max()} {
		if !math.IsNaN(v) {
			t.Fatalf("%s of empty sample = %g, want NaN", name, v)
		}
	}
	if s.StdDev() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("spread of empty sample should be 0")
	}
}

func TestBasics(t *testing.T) {
	var s Sample
	add(&s, 2, 4, 4, 4, 5, 5, 7, 9)
	if s.Mean() != 5 {
		t.Fatalf("mean = %g, want 5", s.Mean())
	}
	if s.Max() != 9 {
		t.Fatalf("max = %g, want 9", s.Max())
	}
	wantSD := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-wantSD) > 1e-12 {
		t.Fatalf("stddev = %g, want %g", s.StdDev(), wantSD)
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Mean() != 3 || s.Max() != 3 || s.StdDev() != 0 {
		t.Fatal("single-observation stats wrong")
	}
}

func TestString(t *testing.T) {
	var s Sample
	add(&s, 1, 2, 3)
	// stderr = 1/sqrt(3); half-width = t_2 * stderr = 4.303 * 0.5774.
	if got := s.String(); got != "2.00 ± 2.48 (n=3)" {
		t.Fatalf("String = %q", got)
	}
}

// TestCI95StudentT pins the small-n critical values: the half-width must
// use the Student-t table up to n=30 and the normal 1.96 above. The
// paper's experiments average n=10 seeds, where t_9 = 2.262 (the normal
// approximation would understate the interval by ~15%).
func TestCI95StudentT(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // critical value CI95 must multiply StdErr by
	}{
		{2, 12.706}, // df=1
		{3, 4.303},
		{5, 2.776},
		{10, 2.262}, // the paper's seed count
		{20, 2.093},
		{30, 2.045}, // last table entry
		{31, 1.96},  // normal fallback
		{100, 1.96},
	}
	for _, c := range cases {
		var s Sample
		for i := 0; i < c.n; i++ {
			s.Add(float64(i % 7)) // any spread-y values
		}
		want := c.want * s.StdErr()
		if got := s.CI95(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d: CI95 = %g, want %g (t=%g)", c.n, got, want, c.want)
		}
	}
}

// TestCI95KnownValue pins one fully worked example: 0..9 has stddev
// sqrt(82.5/9), stderr sqrt(82.5/9)/sqrt(10), half-width 2.262 times
// that.
func TestCI95KnownValue(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	want := 2.262 * math.Sqrt(82.5/9) / math.Sqrt(10)
	if got := s.CI95(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	var one Sample
	one.Add(42)
	if one.CI95() != 0 {
		t.Fatal("single observation must have zero half-width")
	}
}

// Property: min <= mean <= max.
func TestPropertyOrderStatistics(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		lo := math.Inf(1)
		for _, x := range raw {
			// Reject non-finite inputs and magnitudes whose sum would
			// overflow float64; experiment metrics are modest reals.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				continue
			}
			s.Add(x)
			lo = min(lo, x)
		}
		if s.N() == 0 {
			return true
		}
		return lo <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
