package des

import "testing"

// RunUntil's contract: a drained queue advances the clock to the
// deadline, and a next event beyond the deadline leaves it queued.
func TestRunUntilAdvancesOnDrainAndBeyondDeadline(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(5, func() {})
	s.RunUntil(3)
	if got := s.Now(); got != 3 {
		t.Fatalf("next event beyond deadline: Now() = %v, want 3", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the beyond-deadline event still queued", s.Pending())
	}
	s.RunUntil(8)
	if got := s.Now(); got != 8 {
		t.Fatalf("drained queue: Now() = %v, want 8", got)
	}
}

// peek discards a stopped root and recycles its slot exactly once; the
// recycled slot's bumped generation makes the old handle inert, so a
// stale Stop cannot kill the live timer that reused the slot.
func TestPeekRecyclesCancelledRootOnce(t *testing.T) {
	s := New()
	log := &timerLog{s: s}
	ev := s.AtTimer(1, log, 1, 0, 0)
	s.Stop(ev)
	if _, ok := s.peek(); ok {
		t.Fatal("peek returned a stopped timer")
	}
	if len(s.free) != 1 || s.free[0] != ev.ref-1 {
		t.Fatalf("free list = %v, want exactly the stopped timer's slot %d", s.free, ev.ref-1)
	}
	live := s.AtTimer(2, log, 2, 0, 0)
	if live.ref != ev.ref {
		t.Fatalf("expected slot reuse, got slot %d (was %d)", live.ref-1, ev.ref-1)
	}
	s.Stop(ev) // stale handle: generation mismatch, must be a no-op
	s.Run()
	if len(log.got) != 1 {
		t.Fatal("stale Stop killed a live timer through a recycled slot")
	}
}
