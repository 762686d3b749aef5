package mtree

import (
	"fmt"
	"strings"
	"testing"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// lineGraph is 0-1-2-3-4 with unit delays, plus the triangle edges
// 1-2-5-1 the cycle case needs.
func lineGraph() *topology.Graph {
	g := topology.New(6)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	g.MustAddEdge(3, 4, 1, 1)
	g.MustAddEdge(2, 5, 1, 1)
	g.MustAddEdge(5, 1, 1, 1)
	return g
}

// TestValidateCorruptTrees corrupts a real tree — 0→1→2→{3,5}, members
// 3 and 5 — by writing its parent array, child lists and member bitset
// directly, past the mutators, and expects Validate to name each broken
// property.
func TestValidateCorruptTrees(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(tr *Tree)
		wantErr string // "" = tree must be accepted
	}{
		{"good tree", func(*Tree) {}, ""},
		{"cycle", func(tr *Tree) {
			// 1→5→2→1 loops without reaching root 0.
			tr.removeChild(0, 1)
			tr.parent[1] = 5
			tr.insertChild(5, 1)
		}, "cycle"},
		{"orphaned branch", func(tr *Tree) {
			// 2 leaves the tree; 3's and 5's chains dead-end at it.
			tr.removeChild(1, 2)
			tr.parent[2] = offTree
		}, "dead-ends at 2"},
		{"phantom edge", func(tr *Tree) {
			// 0-3 is not a link in the topology.
			tr.removeChild(2, 3)
			tr.parent[3] = 0
			tr.insertChild(0, 3)
		}, "edge 3->0 not in graph"},
		{"parent not listing its child", func(tr *Tree) {
			tr.removeChild(2, 3)
		}, "child list missing 3 under 2"},
		{"child listed under a non-parent", func(tr *Tree) {
			tr.insertChild(0, 3)
		}, "child list claims 3 under 0"},
		{"member off tree", func(tr *Tree) {
			tr.member[0] |= 1 << 4
			tr.nMember++
			tr.membersStale = true
		}, "member 4 off tree"},
		{"unpruned non-member leaf", func(tr *Tree) {
			// 5 stops being a member but its branch is never pruned.
			tr.member[0] &^= 1 << 5
			tr.nMember--
			tr.membersStale = true
		}, "non-member leaf 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTree(lineGraph(), 0)
			tr.attach(1, 0)
			tr.attach(2, 1)
			tr.attach(3, 2)
			tr.attach(5, 2)
			tr.SetMember(3, true)
			tr.SetMember(5, true)
			tc.corrupt(tr)
			err := tr.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate rejected a good tree: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

// overBound returns an error naming the first member of tr whose
// multicast delay exceeds bound.
func overBound(tr *Tree, bound float64) error {
	for _, v := range tr.Members() {
		if ml := tr.Delay(v); ml > bound {
			return fmt.Errorf("member %d delay %g exceeds bound %g", v, ml, bound)
		}
	}
	return nil
}

// TestDCDMTreesValidWithinBound pins Validate to the protocol's own
// output: every tree DCDM grows is valid, and after every Join each
// member's multicast delay is within the bound DCDM reports — on the
// line graph, where delay and cost agree, and on random graphs, where
// they do not. (Only joins: a Leave may shrink the bound without
// restructuring the survivors.) The last case shows the bound check
// fires on a valid tree whose member sits past the bound.
func TestDCDMTreesValidWithinBound(t *testing.T) {
	joinAll := func(t *testing.T, d *DCDM, members []topology.NodeID) {
		t.Helper()
		for _, m := range members {
			d.Join(m)
			if err := d.Tree().Validate(); err != nil {
				t.Fatalf("DCDM tree invalid after Join(%d): %v", m, err)
			}
			if err := overBound(d.Tree(), d.Bound()); err != nil {
				t.Fatalf("after Join(%d): %v", m, err)
			}
		}
	}
	t.Run("line", func(t *testing.T) {
		d := newDCDM(lineGraph(), 0, 1.5)
		joinAll(t, d, []topology.NodeID{3, 4, 5})
		d.Leave(4)
		if err := d.Tree().Validate(); err != nil {
			t.Fatalf("DCDM tree invalid after Leave(4): %v", err)
		}
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			rng := rng.New(seed)
			g, err := topology.Random(topology.DefaultRandom(25, 4), rng)
			if err != nil {
				t.Fatal(err)
			}
			members := make([]topology.NodeID, 20)
			for i := range members {
				members[i] = topology.NodeID(rng.Intn(g.N()))
			}
			kappa := []float64{1, 1.5, 2}[seed%3]
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				joinAll(t, newDCDM(g, 0, kappa), members)
			})
		}
	})
	t.Run("delay bound violated", func(t *testing.T) {
		// 0→1→2→3→4 over unit links: member 4 sits at delay 4.
		tr := NewTree(lineGraph(), 0)
		for v := topology.NodeID(1); v <= 4; v++ {
			tr.attach(v, v-1)
		}
		tr.SetMember(4, true)
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate rejected a good tree: %v", err)
		}
		if err := overBound(tr, 2.5); err == nil || !strings.Contains(err.Error(), "exceeds bound") {
			t.Fatalf("overBound(2.5) = %v, want an error containing %q", err, "exceeds bound")
		}
		if err := overBound(tr, 4); err != nil {
			t.Fatalf("overBound(4) = %v, want nil: delay equal to the bound is within it", err)
		}
	})
}
