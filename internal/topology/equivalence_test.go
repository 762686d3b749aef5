package topology

import (
	"fmt"
	"testing"

	"scmp/internal/rng"
)

// This file is the differential-equivalence gate for the fast routing
// engine: on every tested topology family, with and without avoid
// masks, the CSR/4-ary-heap engine must produce EXACTLY the same
// Dist/Delay/Cost/Parent rows as the preserved container/heap
// reference (ref_test.go). Exact float equality is intentional — both
// implementations accumulate delay and cost in the same parent-chain
// order, so agreement is bit-for-bit, and any drift is a real behaviour
// change, not representation noise. The next-hop table is a view over
// the same rows, rooted at the destination; its gates are below (first
// hops where paths are unique, forwarding where they are not) and, for
// the fault layer that drives it, netsim's
// TestEquivalenceLazyReconvergence.

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
		wg, err := Waxman(DefaultWaxman(60), rng.New(seed))
		if err != nil {
			t.Fatalf("waxman seed %d: %v", seed, err)
		}
		graphs[fmt.Sprintf("waxman%d", seed)] = wg.Graph

		rg, err := Random(DefaultRandom(40, 3.5), rng.New(seed+100))
		if err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
		graphs[fmt.Sprintf("rand%d", seed)] = rg
	}
	ts, _, err := TransitStub(DefaultTransitStub(), rng.New(5))
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
	irng := rng.New(9)
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
	rng := rng.New(seed)
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
				for src := 0; src < g.N(); src++ {
					fast := shortestAvoid(g, NodeID(src), w, avoid)
					ref := shortestRef(g, NodeID(src), w, avoid)
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					samePaths(t, label, fast, ref)
				}
			}
		}
	}
}

// TestEquivalenceAllPairsModes checks that one lazy table invalidated
// from mask to mask, recycling its rows each time, answers as the
// one-shot fill and the reference do under each, and that a full scan
// starts every row.
func TestEquivalenceAllPairsModes(t *testing.T) {
	for name, g := range equivGraphs(t) {
		for _, w := range []Weight{ByDelay, ByCost} {
			lazy := NewLazyAllPairs(g, w)
			for avoidName, avoid := range equivAvoids(g, 7) {
				lazy.Invalidate(avoid)
				for src := 0; src < g.N(); src++ {
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					row := lazy.Row(NodeID(src))
					samePaths(t, label+"/lazy-vs-one-shot", row, shortestAvoid(g, NodeID(src), w, avoid))
					samePaths(t, label+"/lazy-vs-ref", row, shortestRef(g, NodeID(src), w, avoid))
				}
				if got := lazy.Materialized(); got != g.N() {
					t.Fatalf("%s/%s: lazy table materialised %d of %d rows after full scan", name, avoidName, got, g.N())
				}
			}
		}
	}
}

// TestLazyAllPairsComputesOnlyConsultedRows pins the lazy table's
// central property: consulting k sources materialises exactly k rows.
func TestLazyAllPairsComputesOnlyConsultedRows(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(50), rng.New(3))
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
// a fresh table has started nothing, consulting k distinct destinations
// starts exactly k rows, and Invalidate drops the count to 0 — without
// allocating once a first round has sized the free list, and neither do
// the rows started after it.
func TestLazyNextHopRefillsOnlyConsultedRows(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(50), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	table := NextHop(g)
	if got := table.Materialized(); got != 0 {
		t.Fatalf("fresh table has %d rows started", got)
	}
	round := func(name string, mask []bool) {
		table.Invalidate(mask)
		if got := table.Materialized(); got != 0 {
			t.Fatalf("%s: %d rows started right after Invalidate", name, got)
		}
		for i, v := range []NodeID{0, 7, 7, 21, 33} {
			table.Hop(NodeID(i), v)
		}
		if got := table.Materialized(); got != 4 {
			t.Fatalf("%s: after consulting 4 distinct destinations: %d rows started", name, got)
		}
	}
	for name, mask := range equivAvoids(g, 13) {
		round(name, mask)
		if allocs := testing.AllocsPerRun(10, func() { round(name, mask) }); allocs != 0 {
			t.Fatalf("%s: Invalidate + 4 recycled rows allocate %v objects", name, allocs)
		}
	}
}

// tieFreeGraphs are the generated families, whose delays are continuous
// draws: shortest-delay paths are unique there, so the first hop has
// one right answer whichever end the tree is rooted at.
func tieFreeGraphs(t testing.TB) map[string]*Graph {
	graphs := map[string]*Graph{"arpanet": Arpanet(), "waxman400": benchGraph(t)}
	for _, deg := range []float64{3, 5} {
		rg, err := Random(DefaultRandom(50, deg), rng.New(int64(deg)))
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("random50-deg%v", deg)] = rg
	}
	ts, _, err := TransitStub(DefaultTransitStub(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	graphs["transitstub"] = ts
	return graphs
}

// checkForwarding follows next from every router to every destination:
// hop by hop it must arrive within n steps over live links, at exactly
// the delay of the source's own shortest-path row under the mask, and a
// pair that row cannot connect must read -1. It returns how many pairs
// leave on another first hop than that row's path does — a tie taken
// the other way; with unique set, that is a failure too.
func checkForwarding(t *testing.T, label string, g *Graph, next *AllPairs, mask []bool, unique bool) (differ int) {
	t.Helper()
	c := g.CSR()
	for u := 0; u < g.N(); u++ {
		sp := shortestAvoid(g, NodeID(u), ByDelay, mask)
		for v := 0; v < g.N(); v++ {
			path := sp.To(NodeID(v))
			if len(path) < 2 {
				if nh := next.Hop(NodeID(u), NodeID(v)); nh != -1 {
					t.Fatalf("%s: hop(%d,%d) = %d, want -1", label, u, v, nh)
				}
				continue
			}
			if nh := next.Hop(NodeID(u), NodeID(v)); nh != path[1] {
				if unique {
					t.Fatalf("%s: hop(%d,%d) = %d, want %d", label, u, v, nh, path[1])
				}
				differ++
			}
			delay, cur := 0.0, NodeID(u)
			for steps := 0; cur != NodeID(v); steps++ {
				if steps > g.N() {
					t.Fatalf("%s: next-hop loop from %d to %d", label, u, v)
				}
				nh := next.Hop(cur, NodeID(v))
				a, hi := c.Row(cur)
				for a < hi && c.dst[a] != nh {
					a++
				}
				if a == hi || (mask != nil && mask[a]) {
					t.Fatalf("%s: next hop %d->%d toward %d is not a live link", label, cur, nh, v)
				}
				delay += c.delay[a]
				cur = nh
			}
			if delay != sp.Delay[v] {
				t.Fatalf("%s: forwarding %d->%d takes %g, shortest is %g", label, u, v, delay, sp.Delay[v])
			}
		}
	}
	return differ
}

// TestEquivalenceNextHopTieFree is the gate on the destination-rooted
// table: wherever shortest paths are unique, Hop(u, v) is the second
// router of the engine's path from u to v — for every pair, under every
// mask shape — and -1 when u == v or v is out of reach.
func TestEquivalenceNextHopTieFree(t *testing.T) {
	for name, g := range tieFreeGraphs(t) {
		next := NextHop(g)
		for avoidName, mask := range equivAvoids(g, 21) {
			next.Invalidate(mask)
			checkForwarding(t, name+"/"+avoidName, g, next, mask, true)
		}
	}
}

// TestPropertyNextHopForwardingUnderTies forces the case the tie-free
// gate leaves out: delays drawn from {1, 2, 3}, so equal-delay routes
// are everywhere and the destination-rooted first hop often differs
// from the source-rooted one. Forwarding must still be loop-free and
// optimal under random symmetric masks, because every router on the
// way reads the same tree.
func TestPropertyNextHopForwardingUnderTies(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 10
	}
	differ := 0
	for seed := int64(0); seed < int64(iters); seed++ {
		rng := rng.New(seed)
		n := 2 + rng.Intn(59)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 4/float64(n) {
					g.MustAddEdge(NodeID(u), NodeID(v), float64(1+rng.Intn(3)), float64(1+rng.Intn(3)))
				}
			}
		}
		next := NextHop(g)
		for avoidName, mask := range equivAvoids(g, seed) {
			next.Invalidate(mask)
			differ += checkForwarding(t, fmt.Sprintf("seed %d (n=%d)/%s", seed, n, avoidName), g, next, mask, false)
		}
	}
	if differ == 0 {
		t.Fatal("fixture: no pair took an equal-delay first hop other than the source row's; the ties were not exercised")
	}
	t.Logf("%d pairs forwarded over a different equal-delay first hop", differ)
}

// TestNextHopOutOfRangePanics pins that an id outside [0, n) on either
// side fails loudly instead of answering for some other pair, as a
// flat u*n+v index would: (0, n) is (1, 0) there.
func TestNextHopOutOfRangePanics(t *testing.T) {
	g := Arpanet()
	n := NodeID(g.N())
	next := NextHop(g)
	for _, tc := range [][2]NodeID{{0, n}, {n, 0}, {0, -1}, {-1, 0}, {n - 1, n + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hop(%d, %d) on %d routers did not panic", tc[0], tc[1], n)
				}
			}()
			next.Hop(tc[0], tc[1])
		}()
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
		rng := rng.New(seed)
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
		fast := shortestAvoid(g, src, w, avoid)
		ref := shortestRef(g, src, w, avoid)
		samePaths(t, fmt.Sprintf("fuzz seed %d (n=%d, w=%s)", seed, n, w), fast, ref)
	}
}

// TestEngineScratchReuseIsClean runs many sources through ShortestInto
// on one reused Paths row, checking against fresh computations — the
// scratch buffers must not leak state between runs, and a sized row
// refills without allocating.
func TestEngineScratchReuseIsClean(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(45), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	var row Paths
	for src := 0; src < g.N(); src++ {
		w := Weight(src % 2)
		g.ShortestInto(&row, NodeID(src), w)
		fresh := shortestRef(g, NodeID(src), w, nil)
		samePaths(t, fmt.Sprintf("reuse src %d", src), &row, fresh)
	}
	// Once sized, a reused row is filled without allocating.
	if allocs := testing.AllocsPerRun(10, func() { g.ShortestInto(&row, 3, ByCost) }); allocs != 0 {
		t.Fatalf("ShortestInto into a reused row allocates %v objects", allocs)
	}
	// The same row on a smaller graph: it shrinks to that graph's shape.
	small := Arpanet()
	small.ShortestInto(&row, 3, ByCost)
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
		big.ShortestInto(&row, 7, ByCost)
		samePaths(t, fmt.Sprintf("reuse after %d sparse pops", pops), &row, shortestRef(big, 7, ByCost, nil))
		row.start(big.N(), 5, ByDelay, true)
		row.advance(big.CSR(), ByDelay, nil, pops, -1)
		g.ShortestInto(&row, 9, ByDelay)
		samePaths(t, fmt.Sprintf("reuse on a smaller graph after %d sparse pops", pops), &row, shortestRef(g, 9, ByDelay, nil))
	}
}
