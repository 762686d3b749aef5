package topology

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// This file is the differential-equivalence gate for the fast routing
// engine: on every tested topology family, with and without avoid
// masks, the CSR/4-ary-heap engine must produce EXACTLY the same
// Dist/Delay/Cost/Parent rows as the preserved container/heap
// reference (ref.go). Exact float equality is intentional — both
// implementations accumulate delay and cost in the same parent-chain
// order, so agreement is bit-for-bit, and any drift is a real behaviour
// change, not representation noise. (The next-hop table's gate lives
// with the fault layer that drives it: netsim's
// TestEquivalenceLazyReconvergence.)

// equivGraphs builds the test topologies: random Waxman instances,
// transit-stub hierarchies, flat random graphs, the fixed ARPANET map,
// tie-heavy shapes (a uniform ring, small-integer weights) and
// degenerate ones (empty, single node, disconnected).
func equivGraphs(t testing.TB) map[string]*Graph {
	graphs := map[string]*Graph{
		"arpanet": Arpanet(),
		"empty":   New(0),
		"single":  New(1),
	}
	for seed := int64(1); seed <= 3; seed++ {
		wg, err := Waxman(DefaultWaxman(60), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("waxman seed %d: %v", seed, err)
		}
		graphs[fmt.Sprintf("waxman%d", seed)] = wg.Graph

		rg, err := Random(DefaultRandom(40, 3.5), rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
		graphs[fmt.Sprintf("rand%d", seed)] = rg
	}
	ts, _, err := TransitStub(DefaultTransitStub(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("transit-stub: %v", err)
	}
	graphs["transitstub"] = ts

	// Disconnected: two components, so unreachable rows are exercised.
	dg := New(6)
	dg.MustAddEdge(0, 1, 1.5, 2.5)
	dg.MustAddEdge(1, 2, 2.5, 1.5)
	dg.MustAddEdge(3, 4, 1.25, 3.5)
	dg.MustAddEdge(4, 5, 3.5, 1.25)
	graphs["disconnected"] = dg

	// Uniform ring: two equal routes to the antipode, so the (dist, id)
	// ladder and the lower-id-predecessor rule decide every row.
	ring := New(24)
	for u := 0; u < ring.N(); u++ {
		ring.MustAddEdge(NodeID(u), NodeID((u+1)%ring.N()), 1, 1)
	}
	graphs["ring"] = ring

	// Small-integer weights on a random graph: exact float ties between
	// alternative paths are the common case, not the exception.
	ig := New(50)
	irng := rand.New(rand.NewSource(9))
	for u := 0; u < ig.N(); u++ {
		for v := u + 1; v < ig.N(); v++ {
			if v == u+1 || irng.Float64() < 0.08 {
				ig.MustAddEdge(NodeID(u), NodeID(v), float64(1+irng.Intn(3)), float64(1+irng.Intn(3)))
			}
		}
	}
	graphs["intweights"] = ig
	return graphs
}

// arcMask evaluates a link predicate into the arc mask the engine takes.
func arcMask(g *Graph, avoid func(u, v NodeID) bool) []bool {
	c := g.CSR()
	mask := make([]bool, c.NumArcs())
	for u := 0; u < g.N(); u++ {
		lo, hi := c.Row(NodeID(u))
		for a := lo; a < hi; a++ {
			mask[a] = avoid(NodeID(u), c.ArcDst(a))
		}
	}
	return mask
}

// equivAvoids builds the avoid masks to test under: none, a random
// subset of links down, and a node-down mask (every link touching the
// node refused) — the two shapes fault injection produces.
func equivAvoids(g *Graph, seed int64) map[string][]bool {
	avoids := map[string][]bool{"none": nil}
	if g.N() < 4 {
		return avoids
	}
	rng := rand.New(rand.NewSource(seed))
	down := map[[2]NodeID]bool{}
	for u := 0; u < g.N(); u++ {
		for _, l := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < l.To && rng.Float64() < 0.15 {
				down[[2]NodeID{NodeID(u), l.To}] = true
			}
		}
	}
	avoids["links-down"] = arcMask(g, func(u, v NodeID) bool {
		if u > v {
			u, v = v, u
		}
		return down[[2]NodeID{u, v}]
	})
	crashed := NodeID(rng.Intn(g.N()))
	avoids["node-down"] = arcMask(g, func(u, v NodeID) bool { return u == crashed || v == crashed })
	return avoids
}

// samePaths fails the test unless a and b agree exactly on every field.
func samePaths(t *testing.T, label string, a, b *Paths) {
	t.Helper()
	if a.Src != b.Src || len(a.Dist) != len(b.Dist) {
		t.Fatalf("%s: shape mismatch src %d/%d len %d/%d", label, a.Src, b.Src, len(a.Dist), len(b.Dist))
	}
	for v := range a.Dist {
		// Exact comparison, Inf==Inf included: both sides must pick the
		// same parent chain and therefore the same sums. (NaN never
		// occurs: weights are finite and positive.)
		if a.Dist[v] != b.Dist[v] || a.Delay[v] != b.Delay[v] ||
			a.Cost[v] != b.Cost[v] || a.Parent[v] != b.Parent[v] {
			t.Fatalf("%s: node %d differs: dist %v/%v delay %v/%v cost %v/%v parent %d/%d",
				label, v, a.Dist[v], b.Dist[v], a.Delay[v], b.Delay[v],
				a.Cost[v], b.Cost[v], a.Parent[v], b.Parent[v])
		}
	}
}

// TestEquivalenceEngineVsReference is the main differential gate: fast
// engine vs container/heap reference, every topology family, every
// source, both weights, all avoid masks.
func TestEquivalenceEngineVsReference(t *testing.T) {
	for name, g := range equivGraphs(t) {
		for avoidName, avoid := range equivAvoids(g, 42) {
			for _, w := range []Weight{ByDelay, ByCost} {
				e := NewEngine(g)
				for src := 0; src < g.N(); src++ {
					fast := e.ShortestAvoid(NodeID(src), w, avoid)
					ref := shortestRef(g, NodeID(src), w, avoid)
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					samePaths(t, label, fast, ref)
				}
			}
		}
	}
}

// TestEquivalenceAllPairsModes checks that the eager (parallel), lazy,
// and forced-serial all-pairs builds return identical rows — the
// deterministic-merge claim for the sharded table.
func TestEquivalenceAllPairsModes(t *testing.T) {
	for name, g := range equivGraphs(t) {
		for avoidName, avoid := range equivAvoids(g, 7) {
			for _, w := range []Weight{ByDelay, ByCost} {
				serial := func() *AllPairs {
					prev := runtime.GOMAXPROCS(1)
					defer runtime.GOMAXPROCS(prev)
					return NewAllPairsAvoid(g, w, avoid)
				}()
				parallel := func() *AllPairs {
					prev := runtime.GOMAXPROCS(4)
					defer runtime.GOMAXPROCS(prev)
					return NewAllPairsAvoid(g, w, avoid)
				}()
				lazy := NewLazyAllPairsAvoid(g, w, avoid)
				for src := 0; src < g.N(); src++ {
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					samePaths(t, label+"/serial-vs-parallel", serial.Row(NodeID(src)), parallel.Row(NodeID(src)))
					samePaths(t, label+"/eager-vs-lazy", serial.Row(NodeID(src)), lazy.Row(NodeID(src)))
				}
				if got := lazy.Materialized(); got != g.N() {
					t.Fatalf("%s: lazy table materialised %d of %d rows after full scan", name, got, g.N())
				}
			}
		}
	}
}

// TestLazyAllPairsComputesOnlyConsultedRows pins the lazy table's
// central property: consulting k sources materialises exactly k rows.
func TestLazyAllPairsComputesOnlyConsultedRows(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(50), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	ap := NewLazyAllPairs(wg.Graph, ByDelay)
	if got := ap.Materialized(); got != 0 {
		t.Fatalf("fresh lazy table has %d rows materialised", got)
	}
	for _, src := range []NodeID{0, 7, 7, 21} {
		ap.Row(src)
	}
	if got := ap.Materialized(); got != 3 {
		t.Fatalf("after consulting 3 distinct sources: %d rows materialised, want 3", got)
	}
}

// TestLazyNextHopRefillsOnlyConsultedRows pins in-place reconvergence:
// Invalidate leaves every row stale without reallocating, consulting k
// sources refills exactly k rows, and each holds the first hops of the
// engine's masked shortest-path tree.
func TestLazyNextHopRefillsOnlyConsultedRows(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(50), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	table := NextHop(g)
	if got := table.Materialized(); got != g.N() {
		t.Fatalf("fresh table has %d of %d rows current", got, g.N())
	}
	backing := &table.hops[0]
	for name, mask := range equivAvoids(g, 13) {
		table.Invalidate(mask)
		if got := table.Materialized(); got != 0 {
			t.Fatalf("%s: %d rows current right after Invalidate", name, got)
		}
		for _, u := range []NodeID{0, 7, 7, 21} {
			sp := NewEngine(g).ShortestAvoid(u, ByDelay, mask)
			for v := 0; v < g.N(); v++ {
				want := NodeID(-1)
				if path := sp.To(NodeID(v)); len(path) > 1 {
					want = path[1]
				}
				if got := table.Hop(u, NodeID(v)); got != want {
					t.Fatalf("%s: hop(%d,%d) = %d, want %d", name, u, v, got, want)
				}
			}
		}
		table.Row(33)
		if got := table.Materialized(); got != 4 {
			t.Fatalf("%s: after consulting 4 distinct sources: %d rows current", name, got)
		}
	}
	if backing != &table.hops[0] {
		t.Fatal("Invalidate reallocated the table")
	}
}

// TestPropertyEngineEquivalenceFuzz is the randomized property check:
// arbitrary connected-or-not random graphs, random weights, random
// avoid masks, random sources — fast engine must equal the reference
// exactly on all of them.
func TestPropertyEngineEquivalenceFuzz(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 30
	}
	for seed := int64(0); seed < int64(iters); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := New(n)
		// Random edge set with random positive weights; occasionally
		// duplicate weight values to push on the tie-break ladder.
		weights := []float64{0.5, 1, 1, 2, 2.5, 4}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					var d, c float64
					if rng.Float64() < 0.5 {
						// Small discrete weight pool: exact float ties
						// between alternative paths become likely.
						d = weights[rng.Intn(len(weights))]
						c = weights[rng.Intn(len(weights))]
					} else {
						d = 0.1 + rng.Float64()*10
						c = 0.1 + rng.Float64()*10
					}
					g.MustAddEdge(NodeID(u), NodeID(v), d, c)
				}
			}
		}
		var avoid []bool
		if rng.Float64() < 0.5 {
			mask := rng.Int63()
			avoid = arcMask(g, func(u, v NodeID) bool {
				if u > v {
					u, v = v, u
				}
				return mask>>(uint(u*7+v)%63)&1 == 1
			})
		}
		w := Weight(rng.Intn(2))
		src := NodeID(rng.Intn(n))
		fast := NewEngine(g).ShortestAvoid(src, w, avoid)
		ref := shortestRef(g, src, w, avoid)
		samePaths(t, fmt.Sprintf("fuzz seed %d (n=%d, w=%s)", seed, n, w), fast, ref)
	}
}

// TestEngineScratchReuseIsClean runs many sources through one engine
// and one reused Paths row, checking against fresh computations — the
// scratch buffers must not leak state between runs.
func TestEngineScratchReuseIsClean(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(45), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	e := NewEngine(g)
	var row Paths
	for src := 0; src < g.N(); src++ {
		w := Weight(src % 2)
		e.ShortestInto(&row, NodeID(src), w, nil)
		fresh := shortestRef(g, NodeID(src), w, nil)
		samePaths(t, fmt.Sprintf("reuse src %d", src), &row, fresh)
	}
	// The same row on a smaller graph: it shrinks to that graph's shape.
	small := Arpanet()
	NewEngine(small).ShortestInto(&row, 3, ByCost, nil)
	samePaths(t, "reuse on a smaller graph", &row, shortestRef(small, 3, ByCost, nil))

	// And after it has been a sparse row — left suspended before its
	// first growth step, then again after it — on the graph it was
	// sparse for and on the smaller one its arrays are then too big for.
	big := line(t, 2*sparseSlots*sparseDiv)
	for _, pops := range []int{sparseSlots / 2, sparseSlots + sparseSlots/4} {
		row.start(big.N(), 5, ByDelay, true)
		row.advance(big.CSR(), ByDelay, nil, pops, -1)
		if row.ids == nil || row.queued == 0 || (len(row.ids) > sparseSlots) != (pops > sparseSlots) {
			t.Fatalf("fixture: row after %d pops is sparse = %v, %d slots, %d queued", pops, row.ids != nil, len(row.ids), row.queued)
		}
		NewEngine(big).ShortestInto(&row, 7, ByCost, nil)
		samePaths(t, fmt.Sprintf("reuse after %d sparse pops", pops), &row, shortestRef(big, 7, ByCost, nil))
		row.start(big.N(), 5, ByDelay, true)
		row.advance(big.CSR(), ByDelay, nil, pops, -1)
		e.ShortestInto(&row, 9, ByDelay, nil)
		samePaths(t, fmt.Sprintf("reuse on a smaller graph after %d sparse pops", pops), &row, shortestRef(g, 9, ByDelay, nil))
	}
}
