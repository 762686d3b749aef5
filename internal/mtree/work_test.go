package mtree_test

import (
	"testing"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// TestDCDMRescansOnlyForTheMaximum is the work oracle of DCDM's delay
// bound (ROADMAP item 28): the bound is one number, so Leave rescans the
// members only when the member leaving holds the maximum unicast delay,
// and DetachSubtree only when an orphan does. Members flap at random, as
// churn drives them, on a 120-router Waxman graph, with subtrees cut
// off and their orphans re-grafted in between; after every operation
// the count of rescans must equal the count a from-scratch maximum
// predicts. A DCDM that rescans on every leave fails.
func TestDCDMRescansOnlyForTheMaximum(t *testing.T) {
	rnd := rng.New(9)
	wg, err := topology.Waxman(topology.DefaultWaxman(120), rnd)
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	d := mtree.NewDCDM(g, 0, 1.5, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
	maxUL := func() (hi float64) {
		for _, m := range d.Tree().Members() {
			hi = max(hi, d.UnicastDelay(m))
		}
		return hi
	}
	want := 0
	var leaves, atMax, detaches, detachesAtMax int
	check := func(op string, v topology.NodeID, held bool) {
		t.Helper()
		if held {
			want++
		}
		if got := d.Rescans(); got != want {
			t.Fatalf("%s of %d: %d rescans, want %d (the maximum was held: %v)", op, v, got, want, held)
		}
	}
	for step := 0; step < 3000; step++ {
		if step%100 == 99 {
			nodes := d.Tree().Nodes()
			v := nodes[rnd.Intn(len(nodes))]
			if v == 0 {
				continue
			}
			hi := maxUL()
			orphans := d.DetachSubtree(v)
			held := false
			for _, m := range orphans {
				held = held || d.UnicastDelay(m) >= hi
			}
			detaches++
			if held {
				detachesAtMax++
			}
			check("detach", v, held)
			for _, m := range orphans {
				d.Join(m)
			}
			continue
		}
		v := topology.NodeID(1 + rnd.Intn(g.N()-1))
		if !d.Tree().IsMember(v) {
			d.Join(v)
			check("join", v, false)
			continue
		}
		held := d.UnicastDelay(v) >= maxUL()
		d.Leave(v)
		leaves++
		if held {
			atMax++
		}
		check("leave", v, held)
	}
	if atMax == 0 || atMax == leaves || detachesAtMax == 0 || detachesAtMax == detaches {
		t.Fatalf("%d of %d leaves and %d of %d detaches held the maximum: both outcomes of each must occur", atMax, leaves, detachesAtMax, detaches)
	}
	t.Logf("%d of %d leaves and %d of %d detaches rescanned", atMax, leaves, detachesAtMax, detaches)
}

// TestLeaveVisitsOnlyItsBranch is the work oracle of a leave (ROADMAP
// item 28): Tree.Leave tests only the branch it prunes and the router
// where it stops. Members flap at random on a 120-router Waxman graph;
// before every leave the branch is read off the tree — the leaving
// router if it has no children, then each ancestor that is no member
// and whose only child is the branch below it — and the leave must
// prune exactly that branch, having tested one router more. A leave
// that walks on to the root, or rescans the tree for leaves, fails.
func TestLeaveVisitsOnlyItsBranch(t *testing.T) {
	rnd := rng.New(11)
	wg, err := topology.Waxman(topology.DefaultWaxman(120), rnd)
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	d := mtree.NewDCDM(g, 0, 1.5, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
	tree := d.Tree()
	var leaves, pruning, longest int
	for step := 0; step < 3000; step++ {
		v := topology.NodeID(1 + rnd.Intn(g.N()-1))
		if !tree.IsMember(v) {
			d.Join(v)
			continue
		}
		branch := 0
		for u, below := v, 0; u != tree.Root() && len(tree.Children(u)) == below && (u == v || !tree.IsMember(u)); below = 1 {
			branch++
			u, _ = tree.Parent(u)
		}
		before := tree.Visits()
		pruned := len(d.Leave(v).Pruned)
		if got := tree.Visits() - before; pruned != branch || got != branch+1 {
			t.Fatalf("leave of %d pruned %d routers and tested %d, want a branch of %d and %d tested", v, pruned, got, branch, branch+1)
		}
		leaves++
		if branch > 0 {
			pruning++
		}
		longest = max(longest, branch)
	}
	if pruning == 0 || pruning == leaves || longest < 2 {
		t.Fatalf("%d of %d leaves pruned, the longest branch %d: want leaves that prune and leaves that do not, and a branch of more than one router", pruning, leaves, longest)
	}
	t.Logf("%d of %d leaves pruned a branch, the longest %d routers", pruning, leaves, longest)
}
