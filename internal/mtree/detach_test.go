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
	d := NewDCDM(g, 0, 2, nil, nil)
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
	d.SetAllPairs(
		topology.NewAllPairsAvoid(g, topology.ByDelay, avoid),
		topology.NewAllPairsAvoid(g, topology.ByCost, avoid),
	)
	d.Join(3)
	if !d.Tree().OnTree(2) || !d.Tree().IsMember(3) {
		t.Fatalf("re-graft did not avoid crashed router: nodes=%v", d.Tree().Nodes())
	}
	if err := d.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetAllPairsRecomputesBound(t *testing.T) {
	g := chainGraph(3)
	d := NewDCDM(g, 0, 1, nil, nil)
	d.Join(2)
	before := d.Bound()
	// Doubling every delay through fresh tables must double the bound.
	g2 := topology.New(3)
	g2.MustAddEdge(0, 1, 2, 2)
	g2.MustAddEdge(1, 2, 2, 2)
	d.SetAllPairs(topology.NewAllPairs(g2, topology.ByDelay), topology.NewAllPairs(g2, topology.ByCost))
	if d.Bound() != 2*before {
		t.Fatalf("bound = %g, want %g", d.Bound(), 2*before)
	}
}
