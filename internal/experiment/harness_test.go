package experiment

// Regression tests for the harness bugfixes: the floating-point send
// schedule, the WriteFig7 nil-cell panic, and pickMembers' silent group
// shrinking.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"scmp/internal/stats"
)

// TestSendTimesExactCounts pins the schedule length for several rates.
// The old accumulating loop (`t += interval`) drifted by ULPs at
// non-integer intervals and dropped or duplicated the final packet.
func TestSendTimesExactCounts(t *testing.T) {
	cases := []struct {
		simTime, rate float64
		want          int
	}{
		{30, 1, 30},   // paper default: t = 1..30
		{30, 2, 59},   // t = 1, 1.5, …, 30
		{30, 3, 88},   // non-dyadic interval: the drift-prone case
		{30, 4, 117},  // t = 1, 1.25, …, 30
		{30, 0.5, 15}, // t = 1, 3, …, 29
		{10, 3, 28},   // t = 1, 1.33…, …, 10 − ε
		{0.5, 1, 0},   // run ends before the first send
		{1, 1, 1},     // exactly one send at t = 1
	}
	for _, c := range cases {
		ts := sendTimes(c.simTime, c.rate)
		if len(ts) != c.want {
			t.Errorf("sendTimes(%g, %g): %d packets, want %d",
				c.simTime, c.rate, len(ts), c.want)
			continue
		}
		if c.want == 0 {
			continue
		}
		if ts[0] != 1.0 {
			t.Errorf("sendTimes(%g, %g): first send at %g, want 1", c.simTime, c.rate, ts[0])
		}
		last := ts[len(ts)-1]
		if last > c.simTime {
			t.Errorf("sendTimes(%g, %g): last send %g after end of run", c.simTime, c.rate, last)
		}
		if last+1.0/c.rate <= c.simTime {
			t.Errorf("sendTimes(%g, %g): schedule stops early at %g", c.simTime, c.rate, last)
		}
	}
}

// TestSendTimesMonotone: times strictly increase (no duplicated sends).
func TestSendTimesMonotone(t *testing.T) {
	for _, rate := range []float64{0.5, 1, 2, 3, 7, 10} {
		ts := sendTimes(30, rate)
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("rate %g: non-monotone schedule at %d: %g then %g", rate, i-1, ts[i-1], ts[i])
			}
		}
	}
}

// TestWriteFig7PartialSlice: a table missing some algorithms' rows
// must print a placeholder, not panic on a nil cell (the old writer
// dereferenced row["KMB"] unconditionally).
func TestWriteFig7PartialSlice(t *testing.T) {
	sample := func(x float64) stats.Sample {
		var s stats.Sample
		s.Add(x)
		return s
	}
	points := Table{fig7Table, []Row{
		{Key{"moderate", 10, "DCDM"}, []stats.Sample{sample(5), sample(7)}},
	}}
	var buf bytes.Buffer
	WriteFig7(&buf, points) // must not panic
	out := buf.String()
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cells not marked with placeholder:\n%s", out)
	}
	if !strings.Contains(out, "7") {
		t.Fatalf("present cell not printed:\n%s", out)
	}
}

// TestPickMembersPanicsWhenShort: requesting more members than exist
// must fail loudly instead of quietly shrinking the group (which would
// silently skew every averaged sweep point).
func TestPickMembersPanicsWhenShort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// k = n with a real exclusion: only n-1 candidates.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("pickMembers accepted k > candidates")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "pickMembers") {
				t.Fatalf("panic %v lacks context", r)
			}
		}()
		pickMembers(rng, 10, 10, 3)
	}()
	// k = n without exclusion is fine.
	if got := pickMembers(rng, 10, 10, -1); len(got) != 10 {
		t.Fatalf("k = n, no exclusion: got %d members", len(got))
	}
	// An exclusion outside [0, n) does not shrink the pool.
	if got := pickMembers(rng, 10, 10, 42); len(got) != 10 {
		t.Fatalf("out-of-range exclusion shrank the pool: %d members", len(got))
	}
}

// TestRunFig7SkipsOversizedGroups: sweep sizes at or above N cannot be
// filled once the root is excluded, so they are skipped rather than
// silently shrunk (and rather than panicking deep in a shard).
func TestRunFig7SkipsOversizedGroups(t *testing.T) {
	points := RunFig7(Fig7Config{Nodes: 20, Alpha: 0.25, Beta: 0.2,
		GroupSizes: []int{5, 20, 25}, Seeds: 1})
	for _, r := range points.Rows {
		if size := r.Key[1].(int); size >= 20 {
			t.Fatalf("oversized group %d not skipped", size)
		}
	}
	if len(points.Rows) == 0 {
		t.Fatal("valid sizes were dropped too")
	}
}
