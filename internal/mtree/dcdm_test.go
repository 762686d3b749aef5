package mtree

import (
	"math"
	"testing"
	"testing/quick"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// fig5Graph is a small topology in the spirit of the paper's Fig. 5:
// node 0 is the m-router; the shortest-delay and least-cost routes to
// the members differ, and one join forces a loop-break.
//
//	0 --(1,10)-- 1 --(1,10)-- 2       fast, expensive upper rail
//	0 --(6,1)--- 3 --(6,1)--- 2       slow, cheap lower rail
//	2 --(1,1)--- 4                    stub member
func fig5Graph() *topology.Graph {
	g := topology.New(5)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 10)
	g.MustAddEdge(0, 3, 6, 1)
	g.MustAddEdge(3, 2, 6, 1)
	g.MustAddEdge(2, 4, 1, 1)
	return g
}

// newDCDM is NewDCDM over a lazy table pair of its own, for a test
// whose group shares no tables.
func newDCDM(g *topology.Graph, root topology.NodeID, kappa float64) *DCDM {
	return NewDCDM(g, root, kappa, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
}

func TestDCDMFirstJoinUsesShortestDelayPath(t *testing.T) {
	d := newDCDM(fig5Graph(), 0, 1)
	res := d.Join(2)
	// Empty tree: bound 0 < ul(2)=2, so P_sl(0->2) = 0-1-2 is installed.
	want := []topology.NodeID{0, 1, 2}
	if len(res.Path) != 3 || res.Path[0] != 0 || res.Path[1] != 1 || res.Path[2] != 2 {
		t.Fatalf("path = %v, want %v", res.Path, want)
	}
	if res.Restructured {
		t.Fatal("first join cannot restructure")
	}
	tr := d.Tree()
	if tr.TreeDelay() != 2 || tr.Cost() != 20 {
		t.Fatalf("delay=%g cost=%g, want 2, 20", tr.TreeDelay(), tr.Cost())
	}
	if d.Bound() != 2 {
		t.Fatalf("bound = %g, want 2", d.Bound())
	}
}

func TestDCDMTightGraftRespectsBound(t *testing.T) {
	d := newDCDM(fig5Graph(), 0, 1)
	d.Join(2)
	// Member 4: ul = 3 > bound 2? No: ul(4) = 2+1 = 3 > 2, so P_sl again,
	// and the bound grows to 3.
	res := d.Join(4)
	if d.Bound() != 3 {
		t.Fatalf("bound = %g, want 3", d.Bound())
	}
	if res.Restructured {
		t.Fatal("graft along the existing branch must not restructure")
	}
	tr := d.Tree()
	if tr.Delay(4) != 3 {
		t.Fatalf("ml(4) = %g, want 3", tr.Delay(4))
	}
	// Cost must still be the upper rail plus the stub: 10+10+1.
	if tr.Cost() != 21 {
		t.Fatalf("cost = %g, want 21", tr.Cost())
	}
}

func TestDCDMLooseConstraintPrefersCheapPath(t *testing.T) {
	// With no delay constraint, member 2 should come in over the cheap
	// lower rail (cost 2) instead of the fast upper rail (cost 20).
	d := newDCDM(fig5Graph(), 0, math.Inf(1))
	d.Join(2)
	tr := d.Tree()
	if tr.Cost() != 2 {
		t.Fatalf("cost = %g, want 2 (lower rail)", tr.Cost())
	}
	if tr.Delay(2) != 12 {
		t.Fatalf("ml(2) = %g, want 12", tr.Delay(2))
	}
	if !tr.OnTree(3) || tr.OnTree(1) {
		t.Fatal("tree should use relay 3, not relay 1")
	}
}

func TestDCDMLoopBreak(t *testing.T) {
	// Force the Fig. 5(c,d) situation: member 2 is on the tree via the
	// upper rail; member 3 then joins. ul(3)=6 > bound 2, so P_sl(0->3)
	// is the direct edge 0-3 — no loop yet. Now make 3 leave and rejoin
	// members so that a *graft path* crosses the tree: instead, drive
	// Graft directly.
	g := fig5Graph()
	tr := NewTree(g, 0)
	tr.attach(1, 0)
	tr.attach(2, 1)
	tr.SetMember(2, true)
	// Graft path 0 -> 3 -> 2 re-enters the tree at 2: node 2 must adopt
	// 3 as its new upstream and the old branch through 1 must be pruned.
	pruned, restructured := tr.Graft([]topology.NodeID{0, 3, 2})
	if !restructured {
		t.Fatal("loop-break not reported")
	}
	if len(pruned) != 1 || pruned[0] != 1 {
		t.Fatalf("pruned = %v, want [1]", pruned)
	}
	if p, _ := tr.Parent(2); p != 3 {
		t.Fatalf("parent(2) = %d, want 3", p)
	}
	if tr.OnTree(1) {
		t.Fatal("node 1 should be pruned")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraftAlongExistingEdgeIsNoop(t *testing.T) {
	g := fig5Graph()
	tr := NewTree(g, 0)
	tr.attach(1, 0)
	tr.attach(2, 1)
	tr.SetMember(2, true)
	pruned, restructured := tr.Graft([]topology.NodeID{0, 1, 2})
	if restructured || len(pruned) != 0 {
		t.Fatalf("graft along tree edges: pruned=%v restructured=%v", pruned, restructured)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGraftUphillTowardAncestorKeepsTreeValid(t *testing.T) {
	// Path 2 -> 1 walks from a node to its own ancestor; re-parenting 1
	// under 2 would create a cycle, so Graft must leave the tree intact.
	g := fig5Graph()
	tr := NewTree(g, 0)
	tr.attach(1, 0)
	tr.attach(2, 1)
	tr.SetMember(2, true)
	_, _ = tr.Graft([]topology.NodeID{2, 1})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Parent(2); p != 1 {
		t.Fatalf("parent(2) = %d, want 1", p)
	}
	if p, _ := tr.Parent(1); p != 0 {
		t.Fatalf("parent(1) = %d, want 0", p)
	}
}

func TestGraftThroughRootKeepsTreeValid(t *testing.T) {
	// A path that passes through the root mid-way must not try to
	// re-parent the root.
	g := topology.New(4)
	g.MustAddEdge(1, 0, 1, 1)
	g.MustAddEdge(0, 2, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	tr := NewTree(g, 0)
	tr.attach(1, 0)
	tr.SetMember(1, true)
	pruned, _ := tr.Graft([]topology.NodeID{1, 0, 2, 3})
	tr.SetMember(3, true) // DCDM.Join marks the member after grafting
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.OnTree(3) || !tr.OnTree(2) {
		t.Fatal("suffix after root not attached")
	}
	if p, _ := tr.Parent(2); p != 0 {
		t.Fatalf("parent(2) = %d, want 0", p)
	}
	_ = pruned
}

func TestDCDMJoinExistingRelayJustMarks(t *testing.T) {
	d := newDCDM(fig5Graph(), 0, 1)
	d.Join(4)        // brings in 0-1-2-4
	res := d.Join(2) // 2 is already a relay
	if !res.AlreadyOn || res.Path != nil {
		t.Fatalf("res = %+v, want AlreadyOn with nil path", res)
	}
	if !d.Tree().IsMember(2) {
		t.Fatal("member not marked")
	}
}

func TestDCDMJoinRoot(t *testing.T) {
	d := newDCDM(fig5Graph(), 0, 1)
	res := d.Join(0)
	if !res.AlreadyOn {
		t.Fatal("root join should be AlreadyOn")
	}
	if d.Tree().Size() != 1 {
		t.Fatal("root join must not grow the tree")
	}
}

func TestDCDMLeaveRecomputesBound(t *testing.T) {
	d := newDCDM(fig5Graph(), 0, 1)
	d.Join(2) // ul 2
	d.Join(4) // ul 3, bound 3
	if d.Bound() != 3 {
		t.Fatalf("bound = %g, want 3", d.Bound())
	}
	res := d.Leave(4)
	if len(res.Pruned) != 1 || res.Pruned[0] != 4 {
		t.Fatalf("pruned = %v, want [4]", res.Pruned)
	}
	if d.Bound() != 2 {
		t.Fatalf("bound after leave = %g, want 2", d.Bound())
	}
	d.Leave(2)
	if d.Bound() != 0 || d.Tree().Size() != 1 {
		t.Fatalf("after all leaves: bound=%g size=%d", d.Bound(), d.Tree().Size())
	}
}

// A kappa below 1, NaN included, panics.
func TestDCDMKappaBelowOnePanics(t *testing.T) {
	for _, kappa := range []float64{0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("kappa %g: expected panic", kappa)
				}
			}()
			newDCDM(fig5Graph(), 0, kappa)
		}()
	}
}

// Property: arbitrary join/leave sequences keep the tree structurally
// valid, keep all members on the tree, and never lose the root.
func TestPropertyDCDMChurnInvariants(t *testing.T) {
	f := func(seed int64, kappaSel uint8) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(25, 4), rng)
		if err != nil {
			return false
		}
		kappa := []float64{1, 1.5, math.Inf(1)}[int(kappaSel)%3]
		d := newDCDM(g, 0, kappa)
		members := map[topology.NodeID]bool{}
		for op := 0; op < 60; op++ {
			v := topology.NodeID(rng.Intn(g.N()))
			if members[v] {
				d.Leave(v)
				delete(members, v)
			} else {
				res := d.Join(v)
				members[v] = true
				if !res.AlreadyOn && !res.Restructured {
					// A clean graft must respect the bound in force.
					if d.Tree().Delay(v) > d.Bound()+1e-9 {
						return false
					}
				}
			}
			if err := d.Tree().Validate(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			for m := range members {
				if !d.Tree().OnTree(m) || !d.Tree().IsMember(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with the tightest constraint, DCDM's tree delay stays close
// to the optimum (the SPT tree delay, which is a lower bound for any
// tree). The paper reports equality; restructuring can add slack, so we
// allow a small margin per instance and require near-equality on
// average.
func TestDCDMTightestNearSPTDelay(t *testing.T) {
	var ratioSum float64
	const runs = 20
	for seed := int64(0); seed < runs; seed++ {
		rng := rng.New(seed)
		wg, err := topology.Waxman(topology.DefaultWaxman(60), rng)
		if err != nil {
			t.Fatal(err)
		}
		g := wg.Graph
		members := pickMembers(rng, g.N(), 15, 0)
		spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
		spCost := topology.NewLazyAllPairs(g, topology.ByCost)
		d := NewDCDM(g, 0, 1, spDelay, spCost)
		for _, m := range members {
			d.Join(m)
		}
		spt := SPT(g, 0, members, spDelay)
		lo := spt.TreeDelay()
		if lo <= 0 {
			t.Fatal("degenerate SPT delay")
		}
		ratio := d.Tree().TreeDelay() / lo
		if ratio < 1-1e-9 {
			t.Fatalf("seed %d: DCDM delay %g below the SPT lower bound %g", seed, d.Tree().TreeDelay(), lo)
		}
		ratioSum += ratio
	}
	if avg := ratioSum / runs; avg > 1.15 {
		t.Fatalf("tightest DCDM delay averages %.3fx SPT; paper reports ~1x", avg)
	}
}

// pickMembers selects k distinct members, excluding `exclude`.
func pickMembers(rng *rng.Rand, n, k int, exclude topology.NodeID) []topology.NodeID {
	perm := rng.Perm(n)
	var out []topology.NodeID
	for _, v := range perm {
		if topology.NodeID(v) == exclude {
			continue
		}
		out = append(out, topology.NodeID(v))
		if len(out) == k {
			break
		}
	}
	return out
}

// BenchmarkDCDMJoin and friends moved to bench_test.go: they now
// measure steady-state joins/leaves on a 400-node fixture against the
// preserved reference engine.
