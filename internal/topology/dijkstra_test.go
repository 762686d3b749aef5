package topology

import (
	"math"
	"testing"
	"testing/quick"

	"scmp/internal/rng"
)

// diamond builds a 4-node graph where the delay-optimal and cost-optimal
// paths from 0 to 3 differ:
//
//	0 --(d1,c10)-- 1 --(d1,c10)-- 3     (delay 2, cost 20)
//	0 --(d5,c1)--- 2 --(d5,c1)--- 3     (delay 10, cost 2)
func diamond() *Graph {
	g := New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 2, 5, 1)
	g.MustAddEdge(2, 3, 5, 1)
	return g
}

func TestShortestByDelayVsCost(t *testing.T) {
	g := diamond()
	byDelay := shortestAvoid(g, 0, ByDelay, nil)
	byCost := shortestAvoid(g, 0, ByCost, nil)

	if got := byDelay.To(3); len(got) != 3 || got[1] != 1 {
		t.Fatalf("delay path = %v, want via node 1", got)
	}
	if got := byCost.To(3); len(got) != 3 || got[1] != 2 {
		t.Fatalf("cost path = %v, want via node 2", got)
	}
	if byDelay.Dist[3] != 2 || byDelay.Delay[3] != 2 || byDelay.Cost[3] != 20 {
		t.Fatalf("delay path metrics = dist %g delay %g cost %g", byDelay.Dist[3], byDelay.Delay[3], byDelay.Cost[3])
	}
	if byCost.Dist[3] != 2 || byCost.Delay[3] != 10 || byCost.Cost[3] != 2 {
		t.Fatalf("cost path metrics = dist %g delay %g cost %g", byCost.Dist[3], byCost.Delay[3], byCost.Cost[3])
	}
}

func TestShortestUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	sp := shortestAvoid(g, 0, ByDelay, nil)
	if sp.Reachable(2) {
		t.Fatal("node 2 should be unreachable")
	}
	if sp.To(2) != nil {
		t.Fatal("To(unreachable) should be nil")
	}
	if !math.IsInf(sp.Dist[2], 1) {
		t.Fatalf("Dist[2] = %g, want +Inf", sp.Dist[2])
	}
}

// An id outside [0, n) — core's "no upstream" is -1 — is unreachable
// and has no path, on either side of the range: for a complete row, and
// for a Near cursor before and after it is asked to settle the id, on a
// short line and on one of over 256 routers, where a table keeps a
// repeat search only once it has labelled keepAt routers.
func TestPathsOutOfRangeIDs(t *testing.T) {
	for _, n := range []int{4, 512} {
		g := line(t, n)
		sp := shortestAvoid(g, 0, ByDelay, nil)
		c := NewLazyAllPairs(g, ByDelay).Near(0)
		for _, tc := range []struct {
			dst   NodeID
			reach bool
			hops  int
		}{
			{-2, false, 0},
			{-1, false, 0},
			{NodeID(n), false, 0},
			{1 << 40, false, 0},
			{0, true, 1},
			{2, true, 3},
			{NodeID(n - 1), true, n}, // settles the whole line
		} {
			if got := sp.Reachable(tc.dst); got != tc.reach {
				t.Errorf("n=%d: Reachable(%d) = %v, want %v", n, tc.dst, got, tc.reach)
			}
			if got := sp.To(tc.dst); len(got) != tc.hops || (got == nil) != !tc.reach {
				t.Errorf("n=%d: To(%d) = %v, want %d nodes", n, tc.dst, got, tc.hops)
			}
			// Nothing but the source is settled until the cursor is asked.
			if tc.dst != 0 && (!math.IsInf(c.Delay(tc.dst), 1) || !math.IsInf(c.Cost(tc.dst), 1) || c.To(tc.dst) != nil) {
				t.Errorf("n=%d: cursor reads unsettled %d: delay %v cost %v path %v", n, tc.dst, c.Delay(tc.dst), c.Cost(tc.dst), c.To(tc.dst))
			}
			if got := c.Settle(tc.dst); got != tc.reach {
				t.Errorf("n=%d: cursor Settle(%d) = %v, want %v", n, tc.dst, got, tc.reach)
			}
			wantDelay, wantCost := math.Inf(1), math.Inf(1)
			if tc.reach {
				wantDelay, wantCost = sp.Delay[tc.dst], sp.Cost[tc.dst]
			}
			if c.Delay(tc.dst) != wantDelay || c.Cost(tc.dst) != wantCost || len(c.To(tc.dst)) != tc.hops {
				t.Errorf("n=%d: cursor reads %d after Settle: delay %v cost %v path of %d, want %v %v %d",
					n, tc.dst, c.Delay(tc.dst), c.Cost(tc.dst), len(c.To(tc.dst)), wantDelay, wantCost, tc.hops)
			}
		}
	}
}

func TestShortestSelf(t *testing.T) {
	g := line(t, 3)
	sp := shortestAvoid(g, 1, ByDelay, nil)
	if sp.Dist[1] != 0 {
		t.Fatalf("Dist[self] = %g", sp.Dist[1])
	}
	p := sp.To(1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("To(self) = %v", p)
	}
}

// bellmanFord is an independent reference implementation.
func bellmanFord(g *Graph, src NodeID, w Weight) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, l := range g.Neighbors(NodeID(u)) {
				if d := dist[u] + w.Of(l); d < dist[l.To] {
					dist[l.To] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// Property: Dijkstra matches Bellman-Ford on random graphs, for both
// weights.
func TestPropertyDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := Random(DefaultRandom(25, 4), rng)
		if err != nil {
			return false
		}
		src := NodeID(rng.Intn(g.N()))
		for _, w := range []Weight{ByDelay, ByCost} {
			got := shortestAvoid(g, src, w, nil)
			want := bellmanFord(g, src, w)
			for v := range want {
				if math.Abs(got.Dist[v]-want[v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the delay/cost annotations on a shortest path equal the sums
// along the reconstructed node sequence.
func TestPropertyPathAnnotations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := Random(DefaultRandom(20, 3), rng)
		if err != nil {
			return false
		}
		sp := shortestAvoid(g, 0, ByCost, nil)
		for v := 0; v < g.N(); v++ {
			path := sp.To(NodeID(v))
			if path == nil {
				return false // connected graph: everything reachable
			}
			if math.Abs(PathDelay(g, path)-sp.Delay[v]) > 1e-9 {
				return false
			}
			if math.Abs(PathCost(g, path)-sp.Cost[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNextHopConsistent(t *testing.T) {
	rng := rng.New(7)
	g, err := Random(DefaultRandom(30, 4), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Following next-hops from any u must reach v with the shortest delay.
	checkForwarding(t, "random30", g, NextHop(g), nil, true)
}

func TestPathDelayPanicsOnNonPath(t *testing.T) {
	g := line(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PathDelay(g, []NodeID{0, 2})
}

func BenchmarkDijkstra100(b *testing.B) {
	rng := rng.New(1)
	wg, err := Waxman(DefaultWaxman(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shortestAvoid(wg.Graph, NodeID(i%100), ByDelay, nil)
	}
}
