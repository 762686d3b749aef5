package invariant

import (
	"slices"
	"strings"
	"testing"

	"scmp/internal/fabric"
	"scmp/internal/mtree"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// lineGraph is 0-1-2-3-4 with unit delays, plus the triangle edges
// 1-2-5-1 some corrupt trees need.
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

type n = topology.NodeID

// parentTree is a tree given as a bare parent map: nothing stands
// between it and a cycle, an orphaned branch or a phantom edge, which is
// what the corrupt cases need. The root is on the tree without an entry.
type parentTree struct {
	g       *topology.Graph
	root    n
	parents map[n]n
	members []n // sorted
}

func (t parentTree) Root() n                { return t.root }
func (t parentTree) Graph() *topology.Graph { return t.g }
func (t parentTree) Members() []n           { return t.members }
func (t parentTree) IsMember(v n) bool      { return slices.Contains(t.members, v) }

func (t parentTree) Parent(v n) (n, bool) {
	p, ok := t.parents[v]
	return p, ok
}

func (t parentTree) OnTree(v n) bool {
	_, ok := t.parents[v]
	return ok || v == t.root
}

// Nodes and Children scan router ids in order, so both come out sorted.
func (t parentTree) Nodes() []n {
	var out []n
	for v := n(0); int(v) < t.g.N(); v++ {
		if t.OnTree(v) {
			out = append(out, v)
		}
	}
	return out
}

func (t parentTree) Children(v n) []n {
	var out []n
	for c := n(0); int(c) < t.g.N(); c++ {
		if p, ok := t.parents[c]; ok && p == v {
			out = append(out, c)
		}
	}
	return out
}

// Delay sums link delays up the parent chain; CheckTree calls it only
// once the chain is known to reach the root over real links.
func (t parentTree) Delay(v n) float64 {
	d := 0.0
	for v != t.root {
		p := t.parents[v]
		l, _ := t.g.Edge(v, p)
		d += l.Delay
		v = p
	}
	return d
}

func TestCheckTree(t *testing.T) {
	cases := []struct {
		name    string
		root    n // tree's actual root; spec.Root unless overridden
		parents map[n]n
		members []n
		spec    TreeSpec
		wantErr string // "" = tree must be accepted
	}{
		{
			name:    "good tree",
			parents: map[n]n{1: 0, 2: 1, 3: 2},
			members: []n{3},
			spec:    TreeSpec{Root: 0, DelayBound: 5},
		},
		{
			name:    "good tree, zero bound skips delay check",
			parents: map[n]n{1: 0, 2: 1, 3: 2},
			members: []n{3},
			spec:    TreeSpec{Root: 0},
		},
		{
			name:    "wrong root",
			root:    0,
			parents: map[n]n{1: 0},
			members: []n{1},
			spec:    TreeSpec{Root: 2},
			wantErr: "rooted at",
		},
		{
			name: "cycle",
			// 1→2→5→1 is a parent cycle disconnected from root 0.
			parents: map[n]n{1: 2, 2: 5, 5: 1, 3: 2},
			members: []n{3},
			spec:    TreeSpec{Root: 0},
			wantErr: "cycle",
		},
		{
			name: "orphaned branch",
			// 3's chain climbs to 2, which has no parent and is not root.
			parents: map[n]n{1: 0, 3: 2},
			members: []n{1, 3},
			spec:    TreeSpec{Root: 0},
			wantErr: "orphaned branch",
		},
		{
			name: "phantom edge",
			// 0-3 is not a link in the topology.
			parents: map[n]n{3: 0},
			members: []n{3},
			spec:    TreeSpec{Root: 0},
			wantErr: "not a link",
		},
		{
			name:    "member off tree",
			parents: map[n]n{1: 0},
			members: []n{1, 4},
			spec:    TreeSpec{Root: 0},
			wantErr: "off the tree",
		},
		{
			name:    "unpruned non-member leaf",
			parents: map[n]n{1: 0, 2: 1},
			members: []n{1},
			spec:    TreeSpec{Root: 0},
			wantErr: "unpruned branch",
		},
		{
			name:    "delay bound violated",
			parents: map[n]n{1: 0, 2: 1, 3: 2, 4: 3},
			members: []n{4}, // delay 4 over unit links
			spec:    TreeSpec{Root: 0, DelayBound: 2.5},
			wantErr: "exceeds bound",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := tc.spec.Root
			if tc.wantErr == "rooted at" {
				root = tc.root
			}
			err := CheckTree(parentTree{lineGraph(), root, tc.parents, tc.members}, tc.spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckTree rejected a good tree: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("CheckTree accepted a bad tree, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckTree error = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckTreeMatchesDCDM pins the checker to the protocol's own
// output: trees DCDM grows must always be accepted, with the bound DCDM
// reports at join time.
func TestCheckTreeMatchesDCDM(t *testing.T) {
	g := lineGraph()
	d := mtree.NewDCDM(g, 0, 1.5, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
	for _, m := range []n{3, 4, 5} {
		d.Join(m)
		if err := CheckTree(d.Tree(), TreeSpec{Root: 0, DelayBound: d.Bound()}); err != nil {
			t.Fatalf("DCDM tree rejected after Join(%d): %v", m, err)
		}
	}
	d.Leave(4)
	if err := CheckTree(d.Tree(), TreeSpec{Root: 0}); err != nil {
		t.Fatalf("DCDM tree rejected after Leave(4): %v", err)
	}
}

func TestCheckFabric(t *testing.T) {
	f, err := fabric.New(8)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[packet.GroupID]fabric.GroupConn{
		1: {Inputs: []int{0, 4, 6}, Output: 2},
		2: {Inputs: []int{1, 3}, Output: 5},
	}
	cfg, err := f.Configure(groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFabric(cfg); err != nil {
		t.Fatalf("CheckFabric rejected a freshly routed configuration: %v", err)
	}

	// A cross-group connection — group 1's run relabelled as group 2's —
	// must be rejected with an error naming the collision.
	cfg.Tamper(0, 2)
	err = CheckFabric(cfg)
	if err == nil {
		t.Fatal("CheckFabric accepted a cross-group connection")
	}
	if !strings.Contains(err.Error(), "group") {
		t.Fatalf("CheckFabric error = %q, want it to name the groups involved", err)
	}
}
