package mtree

import (
	"reflect"
	"testing"

	"scmp/internal/topology"
)

// detachGraph: a tree-shaped topology plus a bypass edge for re-grafts.
//
//	0 - 1 - 2 - 3
//	    |       |
//	    4       (3 also reaches 5 via 0-5 bypass)
//	0 - 5
func detachGraph() *topology.Graph {
	g := topology.New(6)
	g.MustAddEdge(0, 1, 1, 2)
	g.MustAddEdge(1, 2, 1, 2)
	g.MustAddEdge(2, 3, 1, 2)
	g.MustAddEdge(1, 4, 1, 2)
	g.MustAddEdge(0, 5, 1, 2)
	g.MustAddEdge(5, 3, 1, 2)
	return g
}

func TestDetachSubtreeStrandsMembersAndPrunesRelays(t *testing.T) {
	g := detachGraph()
	tr := NewTree(g, 0)
	tr.attach(1, 0)
	tr.attach(2, 1)
	tr.attach(3, 2)
	tr.attach(4, 1)
	tr.SetMember(3, true)
	tr.SetMember(4, true)

	// Cutting at 2 strands member 3; relay 2 leaves with the subtree,
	// and nothing above needs pruning (1 still serves member 4).
	orphans := tr.DetachSubtree(2)
	if !reflect.DeepEqual(orphans, []topology.NodeID{3}) {
		t.Fatalf("orphans = %v, want [3]", orphans)
	}
	if tr.OnTree(2) || tr.OnTree(3) || tr.IsMember(3) {
		t.Fatal("detached subtree still on tree")
	}
	if !tr.OnTree(1) || !tr.IsMember(4) {
		t.Fatal("survivors damaged")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachSubtreePrunesRelayChainAbove(t *testing.T) {
	g := chainGraph(5)
	tr := chainTree(t, g, 4)
	tr.SetMember(4, true)
	// Only member is 4; detaching at 3 must also prune relays 2 and 1.
	orphans := tr.DetachSubtree(3)
	if !reflect.DeepEqual(orphans, []topology.NodeID{4}) {
		t.Fatalf("orphans = %v, want [4]", orphans)
	}
	if tr.Size() != 1 {
		t.Fatalf("tree size = %d, want just the root", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachSubtreeEdgeCases(t *testing.T) {
	g := chainGraph(3)
	tr := chainTree(t, g, 1)
	if got := tr.DetachSubtree(2); got != nil {
		t.Fatalf("off-tree detach = %v, want nil", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic detaching the root")
		}
	}()
	tr.DetachSubtree(0)
}

func TestDCDMDetachAndRegraft(t *testing.T) {
	g := detachGraph()
	spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	d := NewDCDM(g, 0, 2, spDelay, spCost)
	d.Join(3)
	d.Join(4)

	// Member 3 joined over the shortest-delay bypass 0-5-3; member 4
	// over 0-1-4. Crashing router 5 strands exactly member 3.
	orphans := d.DetachSubtree(5)
	if !reflect.DeepEqual(orphans, []topology.NodeID{3}) {
		t.Fatalf("orphans = %v, want [3]", orphans)
	}
	if d.Tree().IsMember(3) || !d.Tree().IsMember(4) {
		t.Fatal("wrong members after detach")
	}
	// Re-grafting through tables that avoid the crashed router must
	// route member 3 the long way, 0-1-2-3.
	avoid := arcMask(g, func(u, v topology.NodeID) bool { return u == 5 || v == 5 })
	spDelay.Invalidate(avoid)
	spCost.Invalidate(avoid)
	d.Rebase()
	d.Join(3)
	if !d.Tree().OnTree(2) || !d.Tree().IsMember(3) {
		t.Fatalf("re-graft did not avoid crashed router: nodes=%v", d.Tree().Nodes())
	}
	if err := d.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebaseRecomputesBound(t *testing.T) {
	// Member 2 sits one unit from the root; cutting that link leaves the
	// two-unit detour through 1, so the rebased bound must double.
	g := topology.New(3)
	g.MustAddEdge(0, 2, 1, 1)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	d := NewDCDM(g, 0, 1, spDelay, spCost)
	d.Join(2)
	before := d.Bound()
	cut := arcMask(g, func(u, v topology.NodeID) bool { return u+v == 2 && u != v })
	spDelay.Invalidate(cut)
	spCost.Invalidate(cut)
	d.Rebase()
	if d.Bound() != 2*before {
		t.Fatalf("bound = %g, want %g", d.Bound(), 2*before)
	}
	d.Leave(2) // removes the rebased delay, not the one the join added
	if d.Bound() != 0 {
		t.Fatalf("bound after the last member left = %g, want 0", d.Bound())
	}
}
