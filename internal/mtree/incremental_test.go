package mtree

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// The leave fast path: a leave whose member sits strictly below the
// current max unicast delay must not change the bound, and a leave of
// the max member itself must tighten it — the rescan, the only leave
// that pays O(m).
func TestDCDMLeaveFastPathBoundTightens(t *testing.T) {
	rng := rng.New(7)
	wg, err := topology.Waxman(topology.DefaultWaxman(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	d := newDCDM(g, 0, 1.5)
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
	d.Leave(below) // fast path: bound untouched
	if got := d.Bound(); got != boundBefore {
		t.Fatalf("leave below the max moved the bound: %g -> %g", boundBefore, got)
	}
	d.Leave(farthest) // rescan: the bound must tighten
	if got := d.Bound(); !(got < boundBefore) {
		t.Fatalf("leave of the max member did not tighten the bound: %g -> %g", boundBefore, got)
	}
	// And the tightened bound must equal a from-scratch rescan.
	if got, want := d.Bound(), 1.5*d.recomputeMaxUL(); got != want {
		t.Fatalf("tightened bound %g, member rescan says %g", got, want)
	}
}

// checkScalarBound fails unless the bound is exactly kappa times a
// from-scratch rescan of the member set.
func checkScalarBound(t *testing.T, d *DCDM, step string) {
	t.Helper()
	if got, want := d.Bound(), d.kappa*d.recomputeMaxUL(); got != want {
		t.Fatalf("%s: bound %g, member rescan says %g", step, got, want)
	}
}

// The bound is one number raised on join and rescanned only when a leave
// removes a member at the maximum: every way a member at the maximum can
// go must leave it equal to the rescan.
func TestDCDMLeaveKeepsScalarBoundExact(t *testing.T) {
	t.Run("tied maximum", func(t *testing.T) {
		// Members 1 and 2 both sit 3 from the root, member 3 sits 1.
		g := topology.New(4)
		g.MustAddEdge(0, 1, 3, 1)
		g.MustAddEdge(0, 2, 3, 1)
		g.MustAddEdge(0, 3, 1, 1)
		d := newDCDM(g, 0, 1.5)
		for _, m := range []topology.NodeID{1, 2, 3} {
			d.Join(m)
			checkScalarBound(t, d, "join")
		}
		d.Leave(1)
		checkScalarBound(t, d, "first leave at the maximum")
		if d.Bound() != 1.5*3 {
			t.Fatalf("the second member at the maximum stays, yet the bound is %g", d.Bound())
		}
		d.Leave(2)
		checkScalarBound(t, d, "second leave at the maximum")
		if d.Bound() != 1.5*1 {
			t.Fatalf("bound %g after both members at the maximum left, want %g", d.Bound(), 1.5*1)
		}
	})

	t.Run("farthest first", func(t *testing.T) {
		rng := rng.New(5)
		wg, err := topology.Waxman(topology.DefaultWaxman(80), rng)
		if err != nil {
			t.Fatal(err)
		}
		d := newDCDM(wg.Graph, 0, 1.5)
		members := pickMembers(rng, wg.Graph.N(), 24, 0)
		for _, m := range members {
			d.Join(m)
			checkScalarBound(t, d, "join")
		}
		order := slices.Clone(members)
		slices.SortStableFunc(order, func(a, b topology.NodeID) int {
			return -cmp.Compare(d.UnicastDelay(a), d.UnicastDelay(b))
		})
		for i, m := range order {
			before := d.Bound()
			d.Leave(m)
			checkScalarBound(t, d, "farthest-first leave")
			if i+1 < len(order) && d.UnicastDelay(order[i+1]) < d.UnicastDelay(m) && !(d.Bound() < before) {
				t.Fatalf("leave of the unique farthest member %d kept the bound at %g", m, before)
			}
		}
		if d.Bound() != 0 {
			t.Fatalf("bound %g with no members, want 0", d.Bound())
		}
	})

	t.Run("detach removes the maximum", func(t *testing.T) {
		// 0 - 1 - 2 - 3 and 0 - 4: member 3 (ul 3) hangs below 1,
		// member 4 (ul 1) does not.
		g := topology.New(5)
		g.MustAddEdge(0, 1, 1, 1)
		g.MustAddEdge(1, 2, 1, 1)
		g.MustAddEdge(2, 3, 1, 1)
		g.MustAddEdge(0, 4, 1, 1)
		d := newDCDM(g, 0, 2)
		d.Join(3)
		d.Join(4)
		checkScalarBound(t, d, "join")
		if got := d.DetachSubtree(1); !slices.Equal(got, []topology.NodeID{3}) {
			t.Fatalf("orphans = %v, want [3]", got)
		}
		checkScalarBound(t, d, "detach of the farthest member")
		if d.Bound() != 2*1 {
			t.Fatalf("bound %g after the farthest member was detached, want 2", d.Bound())
		}
		d.Join(3)
		d.DetachSubtree(4)
		checkScalarBound(t, d, "detach below the maximum")
		if d.Bound() != 2*3 {
			t.Fatalf("bound %g after a detach below the maximum, want 6", d.Bound())
		}
	})

	t.Run("rebase after invalidated tables", func(t *testing.T) {
		rng := rng.New(9)
		wg, err := topology.Waxman(topology.DefaultWaxman(60), rng)
		if err != nil {
			t.Fatal(err)
		}
		g := wg.Graph
		spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
		d := NewDCDM(g, 0, 1.5, spDelay, spCost)
		members := pickMembers(rng, g.N(), 16, 0)
		for _, m := range members {
			d.Join(m)
		}
		// Cutting the last link of the farthest member's shortest path
		// raises the maximum; restoring it lowers the maximum again, so
		// a stale bound fails either way.
		far := slices.MaxFunc(members, func(a, b topology.NodeID) int {
			return cmp.Compare(d.UnicastDelay(a), d.UnicastDelay(b))
		})
		p := spDelay.Row(0).To(far)
		u, v := p[len(p)-2], p[len(p)-1]
		cut := arcMask(g, func(x, y topology.NodeID) bool { return x == u && y == v || x == v && y == u })
		before := d.Bound()
		rebase := func(avoid []bool) {
			spDelay.Invalidate(avoid)
			spCost.Invalidate(avoid)
			d.Rebase()
			checkScalarBound(t, d, "rebase")
		}
		rebase(cut)
		if !(d.Bound() > before) {
			t.Fatalf("cutting the farthest member's last hop left the bound at %g", d.Bound())
		}
		rebase(nil)
		if d.Bound() != before {
			t.Fatalf("bound %g after the tables were restored, want %g", d.Bound(), before)
		}
		rebase(cut)
		for _, m := range members[:8] {
			d.Leave(m)
			checkScalarBound(t, d, "leave after rebase")
		}
	})
}

// Shared-view contract: Members/Nodes slices are rebuilt in place and
// stay sorted across mutations.
func TestTreeSharedViewsStaySorted(t *testing.T) {
	rng := rng.New(11)
	wg, err := topology.Waxman(topology.DefaultWaxman(50), rng)
	if err != nil {
		t.Fatal(err)
	}
	d := newDCDM(wg.Graph, 0, math.Inf(1))
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
