package mtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"scmp/internal/topology"
)

// The leave fast path (satellite of the incremental engine): a leave
// whose member sits strictly below the current max unicast delay must
// not change the bound, and a leave of the max member itself must
// tighten it — the lazy-deletion multiset's pop path, the only leave
// that pays O(log m).
func TestDCDMLeaveFastPathBoundTightens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wg, err := topology.Waxman(topology.DefaultWaxman(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	d := NewDCDM(g, 0, 1.5, nil, nil)
	members := pickMembers(rng, g.N(), 12, 0)
	for _, m := range members {
		d.Join(m)
	}
	// Identify the unique farthest member and some member strictly
	// below it.
	var farthest, below topology.NodeID = -1, -1
	maxUL := 0.0
	for _, m := range members {
		if ul := d.UnicastDelay(m); ul > maxUL {
			maxUL = ul
			farthest = m
		}
	}
	for _, m := range members {
		if m != farthest && d.UnicastDelay(m) < maxUL {
			below = m
			break
		}
	}
	if farthest < 0 || below < 0 {
		t.Fatal("degenerate fixture: need distinct unicast delays")
	}

	boundBefore := d.Bound()
	d.Leave(below) // fast path: lazy note, bound untouched
	if got := d.Bound(); got != boundBefore {
		t.Fatalf("leave below the max moved the bound: %g -> %g", boundBefore, got)
	}
	d.Leave(farthest) // pop path: the bound must tighten
	if got := d.Bound(); !(got < boundBefore) {
		t.Fatalf("leave of the max member did not tighten the bound: %g -> %g", boundBefore, got)
	}
	// And the tightened bound must equal a from-scratch rescan.
	if got, want := d.Bound(), 1.5*d.recomputeMaxUL(); got != want {
		t.Fatalf("tightened bound %g, member rescan says %g", got, want)
	}
}

// maxMultiset unit coverage: max tracking under interleaved adds and
// removes, lazy deletion of duplicates, compaction, reset.
func TestMaxMultiset(t *testing.T) {
	var s maxMultiset
	if s.Max() != 0 || s.Len() != 0 {
		t.Fatal("empty multiset should report 0 max, 0 len")
	}
	s.Add(3)
	s.Add(7)
	s.Add(5)
	s.Add(7) // duplicate max
	if s.Max() != 7 || s.Len() != 4 {
		t.Fatalf("got max %g len %d, want 7 and 4", s.Max(), s.Len())
	}
	s.Remove(5) // lazy: below the max
	if s.Max() != 7 || s.Len() != 3 {
		t.Fatalf("after lazy remove: max %g len %d, want 7 and 3", s.Max(), s.Len())
	}
	s.Remove(7) // one duplicate of the max pops; the other remains
	if s.Max() != 7 || s.Len() != 2 {
		t.Fatalf("after removing one max duplicate: max %g len %d, want 7 and 2", s.Max(), s.Len())
	}
	s.Remove(7)
	if s.Max() != 3 || s.Len() != 1 {
		t.Fatalf("after removing the max: max %g len %d, want 3 and 1", s.Max(), s.Len())
	}
	s.Add(5) // re-adding the lazily deleted value must cancel the pending note
	if s.Max() != 5 || s.Len() != 2 {
		t.Fatalf("after re-add: max %g len %d, want 5 and 2", s.Max(), s.Len())
	}
	s.Reset()
	if s.Max() != 0 || s.Len() != 0 {
		t.Fatal("reset multiset should be empty")
	}

	// Randomised cross-check against a naive slice, including +Inf
	// values (unreachable members) and heavy duplication to force
	// compaction.
	rng := rand.New(rand.NewSource(3))
	var naive []float64
	vals := []float64{1, 2, 2.5, 4, 8, math.Inf(1)}
	for i := 0; i < 5000; i++ {
		if len(naive) == 0 || rng.Intn(3) > 0 {
			x := vals[rng.Intn(len(vals))]
			s.Add(x)
			naive = append(naive, x)
		} else {
			k := rng.Intn(len(naive))
			s.Remove(naive[k])
			naive[k] = naive[len(naive)-1]
			naive = naive[:len(naive)-1]
		}
		want := 0.0
		for _, x := range naive {
			if x > want {
				want = x
			}
		}
		if got := s.Max(); got != want || s.Len() != len(naive) {
			t.Fatalf("step %d: max %g len %d, naive says %g and %d", i, got, s.Len(), want, len(naive))
		}
	}
}

// Shared-view contract: Members/Nodes slices are rebuilt in place and
// stay sorted across mutations.
func TestTreeSharedViewsStaySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wg, err := topology.Waxman(topology.DefaultWaxman(50), rng)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDCDM(wg.Graph, 0, math.Inf(1), nil, nil)
	on := map[topology.NodeID]bool{}
	for i := 0; i < 200; i++ {
		v := topology.NodeID(rng.Intn(wg.Graph.N()))
		if on[v] {
			d.Leave(v)
			delete(on, v)
		} else {
			d.Join(v)
			on[v] = true
		}
		if !slices.IsSorted(d.Tree().Members()) {
			t.Fatalf("step %d: Members view unsorted: %v", i, d.Tree().Members())
		}
		if !slices.IsSorted(d.Tree().Nodes()) {
			t.Fatalf("step %d: Nodes view unsorted: %v", i, d.Tree().Nodes())
		}
		if got, want := len(d.Tree().Members()), d.Tree().MemberCount(); got != want {
			t.Fatalf("step %d: Members view has %d entries, MemberCount says %d", i, got, want)
		}
	}
}
