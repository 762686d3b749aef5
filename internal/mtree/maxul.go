package mtree

// maxMultiset tracks the maximum of a multiset of float64 values (the
// members' unicast delays that drive DCDM's relative bound) with O(log
// m) inserts and amortised O(1) deletes below the maximum. It is a
// binary max-heap with lazy deletion: removing a value strictly below
// the top just records a pending deletion — the O(1) leave fast path —
// while removing the top itself pops in O(log m) and purges any pending
// deletions that surface. The heap is compacted in place (walking the
// array in index order, so layout stays a pure function of the
// operation sequence) once pending deletions outnumber live entries.
//
// Values are never NaN here: unicast delays are sums of non-negative
// link delays, +Inf for unreachable members, so == comparisons and heap
// ordering are well defined.
type maxMultiset struct {
	heap  []float64       // max-heap of live + pending-deleted entries
	dead  map[float64]int // value -> pending lazy-deletion count (all < heap[0])
	nDead int             // total pending deletions
	live  int             // logical multiset size
}

// Len returns the logical multiset size.
func (s *maxMultiset) Len() int { return s.live }

// Max returns the largest live value, 0 when the multiset is empty.
// heap[0] is always live (pending deletions are strictly below the
// maximum by construction and the pop path purges surfacing ones).
func (s *maxMultiset) Max() float64 {
	if s.live == 0 {
		return 0
	}
	return s.heap[0]
}

// Add inserts x. An insert that cancels a pending deletion of the same
// value touches no heap entries at all.
func (s *maxMultiset) Add(x float64) {
	s.live++
	if c, ok := s.dead[x]; ok && c > 0 {
		s.unmarkDead(x, c)
		return
	}
	s.heap = append(s.heap, x) // amortised growth; capacity is retained, steady-state churn re-uses it
	s.up(len(s.heap) - 1)
}

// Remove deletes one instance of x, which must be present. When x sits
// strictly below the current maximum the removal is a lazy O(1) note;
// only a departure of the maximum itself (the member whose unicast
// delay defines the bound) pays the O(log m) pop.
func (s *maxMultiset) Remove(x float64) {
	s.live--
	if s.live == 0 {
		s.Reset()
		return
	}
	if x == s.heap[0] { //scmplint:ignore floatcmp — exact by construction: every Remove(x) passes the bit-identical value a prior Add(x) stored (both read the same immutable table entry), never a re-derived sum
		s.pop()
		s.purgeTop()
		return
	}
	if s.dead == nil {
		s.dead = make(map[float64]int) // one-time lazy init
	}
	s.dead[x]++ // lazy-deletion note; map buckets are recycled across the balanced Add/Remove stream
	s.nDead++
	if s.nDead > len(s.heap)/2 {
		s.compact()
	}
}

// Reset empties the multiset, retaining the heap's capacity.
func (s *maxMultiset) Reset() {
	s.heap = s.heap[:0]
	if s.nDead > 0 {
		clear(s.dead)
		s.nDead = 0
	}
	s.live = 0
}

func (s *maxMultiset) unmarkDead(x float64, c int) {
	if c == 1 {
		delete(s.dead, x)
	} else {
		s.dead[x] = c - 1
	}
	s.nDead--
}

// purgeTop pops pending-deleted values off the heap top until a live
// value (or an empty heap) surfaces.
func (s *maxMultiset) purgeTop() {
	for len(s.heap) > 0 {
		c, ok := s.dead[s.heap[0]]
		if !ok || c == 0 {
			return
		}
		s.unmarkDead(s.heap[0], c)
		s.pop()
	}
}

// compact rebuilds the heap in place keeping only live entries. The
// array is walked in index order and pending-deletion counts are
// consumed first-come, so the result is deterministic (no map
// iteration).
func (s *maxMultiset) compact() {
	w := 0
	for _, x := range s.heap {
		if c, ok := s.dead[x]; ok && c > 0 {
			s.unmarkDead(x, c)
			continue
		}
		s.heap[w] = x
		w++
	}
	s.heap = s.heap[:w]
	for i := w/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

func (s *maxMultiset) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p] >= s.heap[i] {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *maxMultiset) pop() {
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.down(0)
}

func (s *maxMultiset) down(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && s.heap[r] > s.heap[l] {
			big = r
		}
		if s.heap[i] >= s.heap[big] {
			return
		}
		s.heap[i], s.heap[big] = s.heap[big], s.heap[i]
		i = big
	}
}
