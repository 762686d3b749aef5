//go:build invariants

package des

import (
	"strings"
	"testing"
)

// Under -tags invariants, peek and Step must apply the identical
// staleness guard: a generation-mismatched root entry panics through
// checkPeek exactly as it would through checkPop.
func TestPeekStepGenMismatchSymmetry(t *testing.T) {
	forge := func() *Scheduler {
		s := New()
		s.At(5, func() {})
		s.refill() // the live event moves into the near heap
		s.near = append(s.near, entry{at: 1, seq: 999, slot: 0, gen: s.slab[0].gen + 1})
		s.siftUp(len(s.near) - 1)
		return s
	}
	mustPanic := func(name string, f func()) (msg string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic on a generation-mismatched root", name)
			}
			msg = r.(string)
		}()
		f()
		return ""
	}

	s1 := forge()
	peekMsg := mustPanic("peek", func() { s1.peek() })
	s2 := forge()
	stepMsg := mustPanic("Step", func() { s2.Step() })
	if peekMsg != stepMsg {
		t.Fatalf("asymmetric staleness checks:\n peek: %s\n Step: %s", peekMsg, stepMsg)
	}
	if !strings.Contains(peekMsg, "slot recycled under a queued event") {
		t.Fatalf("unexpected invariant message: %s", peekMsg)
	}
}

// Under -tags invariants, a root entry behind the clock (heap order
// broken) panics through peek and Step alike instead of running time
// backwards.
func TestPeekStepTimeBackwardsPanics(t *testing.T) {
	forge := func() *Scheduler {
		s := New()
		s.At(5, func() {})
		s.refill()
		s.now = 10 // the clock has passed the queued event
		return s
	}
	for name, f := range map[string]func(*Scheduler){
		"peek": func(s *Scheduler) { s.peek() },
		"Step": func(s *Scheduler) { s.Step() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "time backwards") {
					t.Fatalf("%s on an entry behind the clock: recovered %q, want a time-backwards panic", name, msg)
				}
			}()
			f(forge())
		}()
	}
}
