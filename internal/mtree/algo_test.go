package mtree

import (
	"math"
	"testing"
	"testing/quick"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

func TestSPTShape(t *testing.T) {
	g := fig5Graph()
	tr := SPT(g, 0, []topology.NodeID{2, 4}, topology.NewLazyAllPairs(g, topology.ByDelay))
	// Shortest-delay routes: 0-1-2 and 0-1-2-4.
	if !tr.OnTree(1) || tr.OnTree(3) {
		t.Fatal("SPT should use the fast rail only")
	}
	if tr.TreeDelay() != 3 {
		t.Fatalf("TreeDelay = %g, want 3", tr.TreeDelay())
	}
	if tr.Cost() != 21 {
		t.Fatalf("Cost = %g, want 21", tr.Cost())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSPTEmptyMembers(t *testing.T) {
	g := fig5Graph()
	tr := SPT(g, 0, nil, topology.NewLazyAllPairs(g, topology.ByDelay))
	if tr.Size() != 1 {
		t.Fatalf("Size = %d, want 1", tr.Size())
	}
}

func TestSPTMemberIsRoot(t *testing.T) {
	g := fig5Graph()
	tr := SPT(g, 0, []topology.NodeID{0}, topology.NewLazyAllPairs(g, topology.ByDelay))
	if tr.Size() != 1 || !tr.IsMember(0) {
		t.Fatalf("size=%d member(0)=%v", tr.Size(), tr.IsMember(0))
	}
}

func TestKMBPrefersCheapRail(t *testing.T) {
	g := fig5Graph()
	tr := KMB(g, 0, []topology.NodeID{2}, topology.NewLazyAllPairs(g, topology.ByCost))
	if tr.Cost() != 2 {
		t.Fatalf("KMB cost = %g, want 2 (cheap rail)", tr.Cost())
	}
	if tr.OnTree(1) {
		t.Fatal("KMB should avoid the expensive rail")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKMBEmptyAndSelf(t *testing.T) {
	g := fig5Graph()
	spCost := topology.NewLazyAllPairs(g, topology.ByCost)
	if tr := KMB(g, 0, nil, spCost); tr.Size() != 1 {
		t.Fatalf("empty KMB size = %d", tr.Size())
	}
	if tr := KMB(g, 0, []topology.NodeID{0}, spCost); tr.Size() != 1 {
		t.Fatalf("self KMB size = %d", tr.Size())
	}
}

func TestKMBDuplicateMembers(t *testing.T) {
	g := fig5Graph()
	tr := KMB(g, 0, []topology.NodeID{2, 2, 4, 4}, topology.NewLazyAllPairs(g, topology.ByCost))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.IsMember(2) || !tr.IsMember(4) {
		t.Fatal("members lost")
	}
}

// dreyfusWagner computes the optimal Steiner tree cost for small graphs;
// used as the reference for the KMB approximation guarantee.
func dreyfusWagner(g *topology.Graph, terminals []topology.NodeID) float64 {
	n := g.N()
	k := len(terminals)
	if k <= 1 {
		return 0
	}
	sp := topology.NewLazyAllPairs(g, topology.ByCost)
	const inf = math.MaxFloat64 / 4
	// dp[S][v]: min cost of a tree spanning terminal-set S ∪ {v}.
	dp := make([][]float64, 1<<uint(k))
	for S := range dp {
		dp[S] = make([]float64, n)
		for v := range dp[S] {
			dp[S][v] = inf
		}
	}
	for i, t := range terminals {
		for v := 0; v < n; v++ {
			dp[1<<uint(i)][v] = sp.Row(t).Dist[v]
		}
	}
	for S := 1; S < 1<<uint(k); S++ {
		if S&(S-1) == 0 {
			continue // singleton handled above
		}
		// Merge two subsets at v.
		for sub := (S - 1) & S; sub > 0; sub = (sub - 1) & S {
			other := S &^ sub
			if other == 0 || sub > other {
				continue
			}
			for v := 0; v < n; v++ {
				if c := dp[sub][v] + dp[other][v]; c < dp[S][v] {
					dp[S][v] = c
				}
			}
		}
		// Relax: route the merged tree to every other node.
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if c := dp[S][u] + sp.Row(topology.NodeID(u)).Dist[v]; c < dp[S][v] {
					dp[S][v] = c
				}
			}
		}
	}
	full := 1<<uint(k) - 1
	best := inf
	for v := 0; v < n; v++ {
		if dp[full][v] < best {
			best = dp[full][v]
		}
	}
	return best
}

// Property: KMB spans root+members, stays within the 2x approximation
// guarantee of the optimum, and is never better than the optimum.
func TestPropertyKMBApproximation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(10, 3), rng)
		if err != nil {
			return false
		}
		members := pickMembers(rng, g.N(), 3, 0)
		tr := KMB(g, 0, members, topology.NewLazyAllPairs(g, topology.ByCost))
		if err := tr.Validate(); err != nil {
			return false
		}
		for _, m := range members {
			if !tr.OnTree(m) || !tr.IsMember(m) {
				return false
			}
		}
		opt := dreyfusWagner(g, append([]topology.NodeID{0}, members...))
		cost := tr.Cost()
		// 2(1 - 1/l) < 2; allow float slack.
		return cost >= opt-1e-6 && cost <= 2*opt+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: SPT achieves the minimum possible tree delay (each member
// at exactly its unicast delay) and spans all members.
func TestPropertySPTDelayOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(20, 4), rng)
		if err != nil {
			return false
		}
		members := pickMembers(rng, g.N(), 6, 0)
		spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
		tr := SPT(g, 0, members, spDelay)
		if err := tr.Validate(); err != nil {
			return false
		}
		for _, m := range members {
			if math.Abs(tr.Delay(m)-spDelay.Row(0).Delay[m]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFig7Ordering verifies the headline statistical shape of Fig. 7 on
// averages over seeds: cost(KMB) <= cost(DCDM loosest) <= cost(SPT) and
// delay(SPT) <= delay(DCDM tightest) <= delay(KMB).
func TestFig7Ordering(t *testing.T) {
	var kmbCost, dcdmCost, sptCost float64
	var kmbDelay, dcdmDelay, sptDelay float64
	const runs = 15
	for seed := int64(0); seed < runs; seed++ {
		rng := rng.New(seed)
		wg, err := topology.Waxman(topology.DefaultWaxman(60), rng)
		if err != nil {
			t.Fatal(err)
		}
		g := wg.Graph
		members := pickMembers(rng, g.N(), 20, 0)
		spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
		spCost := topology.NewLazyAllPairs(g, topology.ByCost)

		kmb := KMB(g, 0, members, spCost)
		spt := SPT(g, 0, members, spDelay)
		loose := NewDCDM(g, 0, math.Inf(1), spDelay, spCost)
		tight := NewDCDM(g, 0, 1, spDelay, spCost)
		for _, m := range members {
			loose.Join(m)
			tight.Join(m)
		}
		kmbCost += kmb.Cost()
		sptCost += spt.Cost()
		dcdmCost += loose.Tree().Cost()
		kmbDelay += kmb.TreeDelay()
		sptDelay += spt.TreeDelay()
		dcdmDelay += tight.Tree().TreeDelay()
	}
	if !(kmbCost <= dcdmCost*1.05 && dcdmCost < sptCost) {
		t.Fatalf("cost ordering violated: KMB %.0f, DCDM-loosest %.0f, SPT %.0f", kmbCost/runs, dcdmCost/runs, sptCost/runs)
	}
	if !(sptDelay <= dcdmDelay*1.001 && dcdmDelay < kmbDelay) {
		t.Fatalf("delay ordering violated: SPT %.0f, DCDM-tightest %.0f, KMB %.0f", sptDelay/runs, dcdmDelay/runs, kmbDelay/runs)
	}
}

func BenchmarkKMB(b *testing.B) {
	rng := rng.New(1)
	wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	g := wg.Graph
	spCost := topology.NewLazyAllPairs(g, topology.ByCost)
	members := pickMembers(rng, g.N(), 40, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KMB(g, 0, members, spCost)
	}
}

func BenchmarkSPT(b *testing.B) {
	rng := rng.New(1)
	wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	g := wg.Graph
	spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
	members := pickMembers(rng, g.N(), 40, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SPT(g, 0, members, spDelay)
	}
}
