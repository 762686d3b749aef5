package des

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"scmp/internal/rng"
)

func TestZeroValueReady(t *testing.T) {
	var s Scheduler
	ran := false
	s.At(s.Now()+1, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != 1 {
		t.Fatalf("Now = %v, want 1", s.Now())
	}
}

func TestOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: %v", i, v)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	log := &timerLog{s: s}
	e := s.AtTimer(1, log, 0, 0, 0)
	s.Stop(e)
	s.Run()
	if len(log.got) != 0 {
		t.Fatal("stopped timer fired")
	}
	if s.Armed(e) {
		t.Fatal("Armed() = true after Stop")
	}
}

func TestCancelAlreadyFired(t *testing.T) {
	s := New()
	e := s.AtTimer(1, &timerLog{s: s}, 0, 0, 0)
	s.Run()
	s.Stop(e) // must not panic
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var got []Time
	s.At(1, func() {
		got = append(got, s.Now())
		s.At(s.Now()+2, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on past event")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	s.AtTimer(s.Now()-1, nopSink(), 0, 0, 0)
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []int
	s.At(1, func() { got = append(got, 1) })
	s.At(5, func() { got = append(got, 5) })
	s.At(10, func() { got = append(got, 10) })
	s.RunUntil(5)
	if len(got) != 2 {
		t.Fatalf("events run = %v, want [1 5]", got)
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
	s.RunUntil(20)
	if len(got) != 3 {
		t.Fatalf("events run = %v, want [1 5 10]", got)
	}
	if s.Now() != 20 {
		t.Fatalf("Now = %v, want 20", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	ran := false
	s.At(5, func() { ran = true })
	s.RunUntil(5)
	if !ran {
		t.Fatal("event at deadline did not run")
	}
}

func TestFiredCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
}

func TestPending(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order.
func TestPropertyMonotonicDispatch(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		var fired []Time
		for _, raw := range times {
			tm := Time(raw)
			s.At(tm, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		want := make([]Time, len(times))
		for i, raw := range times {
			want[i] = Time(raw)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range fired {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a randomly-generated cascade of nested events is reproducible:
// two schedulers fed the same seed dispatch identical sequences.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rng.New(seed)
		s := New()
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, s.Now())
			if depth >= 4 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				s.At(s.Now()+Time(rng.Float64()), func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < 5; i++ {
			s.At(s.Now()+Time(rng.Float64()), func() { spawn(0) })
		}
		s.Run()
		return trace
	}
	for seed := int64(0); seed < 20; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d", seed, i)
			}
		}
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+1, func() {})
		s.Step()
	}
}

// --- pooled-slot semantics ---------------------------------------------

// A stopped timer's slot is recycled and reused by a later timer; the
// stale handle must stay inert: Stop is a no-op, Armed stays false, and
// the recycled slot's new occupant fires exactly once. Run with -tags
// invariants to additionally assert (via checkPop) that no recycled slot
// is ever dispatched.
func TestCancelledSlotRecycledSafely(t *testing.T) {
	s := New()
	log := &timerLog{s: s}
	stale := s.AtTimer(1, log, 1, 0, 0)
	s.Stop(stale)
	if s.Step() {
		t.Fatal("Step fired the stopped timer")
	}
	// The sweep recycled the stopped entry's slot; this timer reuses it.
	fresh := s.AtTimer(2, log, 2, 0, 0)
	if fresh.ref != stale.ref {
		t.Fatalf("free list did not recycle: fresh slot %d, stale slot %d", fresh.ref-1, stale.ref-1)
	}
	s.Stop(stale) // stale handle on a reused slot: must not touch it
	if s.Armed(stale) {
		t.Fatal("stale handle reads armed")
	}
	if !s.Armed(fresh) {
		t.Fatal("stale Stop leaked into the recycled slot")
	}
	s.Run()
	if len(log.got) != 1 || log.got[0].op != 2 {
		t.Fatalf("fired = %+v, want the fresh timer only", log.got)
	}
}

// Step returns false when only stopped timers remain, discarding them.
func TestStepSkipsCancelledToEmpty(t *testing.T) {
	s := New()
	log := &timerLog{s: s}
	s.Stop(s.AtTimer(1, log, 0, 0, 0))
	s.Stop(s.AtTimer(2, log, 0, 0, 0))
	if s.Step() {
		t.Fatal("Step fired a stopped timer")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after sweep, want 0", s.Pending())
	}
}

// From inside its own callback a timer reads as fired: not Armed, and
// its Stop is a no-op.
func TestCancelledInsideOwnCallback(t *testing.T) {
	s := New()
	var e Timer
	armed := true
	e = s.AtTimer(1, funcSink(func(uint8, int32, int32, any, bool) {
		armed = s.Armed(e)
		s.Stop(e)
	}), 0, 0, 0)
	s.Run()
	if armed {
		t.Fatal("Armed() inside own callback = true, want false")
	}
}

// Slots must actually be recycled: a long alternating schedule/fire run
// must not grow the slab beyond the peak number of simultaneously
// queued events.
func TestSlabBoundedByPeakQueue(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.At(s.Now()+1, func() {})
	}
	for i := 0; i < 10_000; i++ {
		s.At(s.Now()+1, func() {})
		s.Step()
	}
	s.Run()
	if len(s.slab) > 11 {
		t.Fatalf("slab grew to %d slots for a peak queue of 11", len(s.slab))
	}
}

// --- typed sink path ----------------------------------------------------

type recordingSink struct {
	s    interface{ Now() Time }
	got  []string
	seen []Time
}

func (r *recordingSink) SinkEvent(op uint8, a, b int32, p any, flag bool) {
	r.got = append(r.got, fmt.Sprintf("op%d %d->%d p=%v flag=%v", op, a, b, p, flag))
	r.seen = append(r.seen, r.s.Now())
}

func TestSinkEvents(t *testing.T) {
	s := New()
	sink := &recordingSink{s: s}
	s.SetSink(sink)
	s.AtSink(2, 1, 10, 20, "x", true)
	s.AtSink(1, 0, 7, 8, nil, false)
	s.Run()
	want := []string{"op0 7->8 p=<nil> flag=false", "op1 10->20 p=x flag=true"}
	if len(sink.got) != 2 || sink.got[0] != want[0] || sink.got[1] != want[1] {
		t.Fatalf("sink saw %v, want %v", sink.got, want)
	}
	if sink.seen[0] != 1 || sink.seen[1] != 2 {
		t.Fatalf("sink clock = %v", sink.seen)
	}
}

// Sink and closure events interleave in one (time, seq) order.
func TestSinkClosureInterleaving(t *testing.T) {
	s := New()
	sink := &recordingSink{s: s}
	s.SetSink(sink)
	var order []string
	s.At(1, func() { order = append(order, "closure") })
	s.AtSink(1, 0, 0, 0, nil, false)
	s.At(1, func() { order = append(order, "closure2") })
	s.Run()
	// The sink event sits between the closures in seq order.
	if len(order) != 2 || len(sink.got) != 1 || sink.seen[0] != 1 {
		t.Fatalf("order=%v sink=%v", order, sink.got)
	}
}

func TestAtSinkWithoutSinkPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AtSink(1, 0, 0, 0, nil, false)
}

func TestSetSinkTwicePanics(t *testing.T) {
	s := New()
	s.SetSink(&recordingSink{s: s})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetSink(&recordingSink{s: s})
}

// Steady-state scheduling through the sink path must be allocation-free.
func TestSinkPathAllocFree(t *testing.T) {
	s := New()
	sink := &recordingSink{s: s}
	s.SetSink(sink)
	// Warm the slab and the sink's record slices.
	for i := 0; i < 100; i++ {
		s.AtSink(s.Now()+1, 0, 0, 0, nil, false)
		s.Step()
	}
	sink.got = sink.got[:0]
	sink.seen = sink.seen[:0]
	avg := testing.AllocsPerRun(1000, func() {
		s.AtSink(s.Now()+1, 0, 0, 0, nil, false)
		s.Step()
		if len(sink.got) > 500 {
			sink.got = sink.got[:0]
			sink.seen = sink.seen[:0]
		}
	})
	// The recording sink's fmt.Sprintf allocates; measure only up to its
	// bookkeeping — anything beyond ~4 allocs/op means the scheduler
	// itself is allocating per event.
	if avg > 4 {
		t.Fatalf("sink round-trip allocates %.1f/op", avg)
	}
}

// --- reference-scheduler differential -----------------------------------

// funcSink forwards sink events to a function.
type funcSink func(op uint8, a, b int32, p any, flag bool)

func (f funcSink) SinkEvent(op uint8, a, b int32, p any, flag bool) { f(op, a, b, p, flag) }

// The reference container/heap scheduler (ref_test.go) and the pooled
// scheduler must dispatch identical (time, event) sequences for
// any workload: nested scheduling, timers and their cancellations, and
// lane events on several lanes whose times tie with each other and with
// loose events, driven through RunUntil windows and Run. On the
// reference scheduler a lane push is a plain AtSink, so equal traces
// mean the lanes dispatch in exact (time, seq) order.
func TestRefEquivalence(t *testing.T) {
	type fire struct {
		at Time
		id int
	}
	run := func(s scheduler, seed int64, lanes int) []fire {
		rng := rng.New(seed)
		var trace []fire
		var timers []handle
		first := s.NewLanes(lanes)
		tail := make([]Time, lanes)
		// Delays on a 1/8 grid: exact in binary, so times tie often.
		delay := func() Time { return Time(rng.Intn(8)) / 8 }
		ids := 0
		var spawn func(id, depth int)
		sink := funcSink(func(_ uint8, a, b int32, _ any, _ bool) { spawn(int(a), int(b)) })
		s.SetSink(sink)
		spawn = func(id, depth int) {
			trace = append(trace, fire{s.Now(), id})
			if depth >= 5 {
				return
			}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				ids++
				id := ids
				if lanes > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(lanes)
					tail[k] = max(tail[k], s.Now()) + delay()
					s.LaneSink(first+Lane(k), tail[k], 0, int32(id), int32(depth+1), nil, false)
					continue
				}
				if rng.Intn(2) == 0 {
					s.At(s.Now()+delay(), func() { spawn(id, depth+1) })
					continue
				}
				timers = append(timers, s.AtTimer(s.Now()+delay(), sink, 0, int32(id), int32(depth+1)))
				if rng.Intn(5) == 0 {
					timers[rng.Intn(len(timers))].Cancel()
				}
			}
		}
		for i := 0; i < 8; i++ {
			s.At(s.Now()+Time(rng.Float64()), func() { spawn(-1-i, 0) })
		}
		for w := 0; s.Pending() > 0; w++ {
			if w%3 == 2 {
				s.Run()
			} else {
				s.RunUntil(s.Now() + 0.3)
			}
			trace = append(trace, fire{s.Now(), 0}) // the clock after each window
		}
		return trace
	}
	for _, lanes := range []int{0, 1, 3} {
		for seed := int64(0); seed < 50; seed++ {
			fast, ref := run(newPooled(), seed, lanes), run(newRef(), seed, lanes)
			if len(fast) != len(ref) {
				t.Fatalf("lanes %d seed %d: fast traced %d, ref traced %d", lanes, seed, len(fast), len(ref))
			}
			for i := range fast {
				if fast[i] != ref[i] {
					t.Fatalf("lanes %d seed %d: dispatch %d is %v (fast) vs %v (ref)", lanes, seed, i, fast[i], ref[i])
				}
			}
		}
	}
}

// The oracle is only as good as its own contract: spot-check on the
// reference scheduler the load-bearing behaviours the Scheduler tests
// above pin on the pooled one.
func TestRefSchedulerContract(t *testing.T) {
	s := newRef()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	e := s.AtTimer(3, funcSink(func(uint8, int32, int32, any, bool) { got = append(got, -1) }), 0, 0, 0)
	e.Cancel()
	if !e.Cancelled() {
		t.Fatal("ref handle broken")
	}
	s.RunUntil(4)
	if len(got) != 0 || s.Now() != 4 {
		t.Fatalf("got=%v now=%v", got, s.Now())
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("ref tie-break not FIFO at %d: %v", i, v)
		}
	}
	if s.Fired() != 50 || s.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", s.Fired(), s.Pending())
	}
	// Sink path on ref: closure-wrapped but same order.
	s2 := &refScheduler{}
	sink := &recordingSink{s: s2}
	s2.SetSink(sink)
	s2.AtSink(s2.Now()+1, 3, 1, 2, nil, true)
	s2.Run()
	if len(sink.got) != 1 || sink.got[0] != "op3 1->2 p=<nil> flag=true" {
		t.Fatalf("ref sink saw %v", sink.got)
	}
}
