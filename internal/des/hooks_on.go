//go:build invariants

package des

import "fmt"

// checkPop validates every entry popped from the pooled heap before it
// is recycled or dispatched, guarding the free-list recycling scheme
// (DESIGN.md §10). A generation mismatch means a slot was recycled
// while a heap entry still pointed at it: the slot's payload belongs
// to a later event, so dispatching it would fire a cancelled or
// already-fired callback with another event's arguments. An event time
// before the clock means the heap order broke. Either is a scheduler
// bug, never bad input, so it panics.
func checkPop(s *Scheduler, e entry, nd *node) {
	if e.gen != nd.gen {
		panic(fmt.Sprintf("des: slot recycled under a queued event (entry gen %d, slot gen %d)", e.gen, nd.gen))
	}
	if e.at < s.now {
		panic(fmt.Sprintf("des: dispatch would run time backwards (event at %g, clock %g)", float64(e.at), float64(s.now)))
	}
}

// checkPeek applies the identical validation to every root entry peek
// inspects, asserting the peek/Step symmetry: both paths see the same
// generations, so the queue view RunUntil acts on is the dispatch order.
func checkPeek(s *Scheduler, e entry, nd *node) { checkPop(s, e, nd) }
