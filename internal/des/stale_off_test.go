//go:build !invariants

package des

import "testing"

// Without the invariants tag, a forged generation-mismatched root entry
// (a slot recycled out from under a queued entry — a scheduler bug the
// invariants build panics on) must be handled identically by peek and
// Step: discarded without recycling, because the slot now belongs to a
// different live event and recycling it would hand it out twice.
func TestPeekAndStepDiscardGenMismatchWithoutRecycle(t *testing.T) {
	forge := func() *Scheduler {
		s := New()
		s.At(5, func() {}) // live event: slot 0, current generation
		s.refill()         // ... moved into the near heap
		// Forge a stale root addressing the same slot with an older
		// generation, as if the slot were recycled while queued.
		s.near = append(s.near, entry{at: 1, seq: 999, slot: 0, gen: s.slab[0].gen + 1})
		s.siftUp(len(s.near) - 1)
		return s
	}

	s := forge()
	if at, ok := s.peek(); !ok || at != 5 {
		t.Fatalf("peek = (%v, %v), want the live event at 5", at, ok)
	}
	if len(s.free) != 0 {
		t.Fatalf("peek recycled a slot it does not own: free = %v", s.free)
	}

	s = forge()
	if !s.Step() {
		t.Fatal("Step found no event; the live event must survive the stale root")
	}
	if got := s.Now(); got != 5 {
		t.Fatalf("Step dispatched at %v, want the live event at 5", got)
	}
}
