package topology

// CSR is the compressed-sparse-row view of a Graph: every directed link
// (both directions of each undirected edge) flattened into parallel
// arrays, neighbours of node u occupying dst[off[u]:off[u+1]] in the
// same order as the Graph's adjacency lists. The per-weight arrays are
// precomputed once per graph, so the Dijkstra inner loop is pure array
// arithmetic: no closure calls, no Link struct loads, no slice-of-slice
// pointer chasing.
//
// A CSR is immutable after construction and shared freely across
// goroutines.
//
// Arc masks: the routing view after a fault is a []bool indexed by arc
// id, true meaning the directed link is unusable (down, or touching a
// failed node); nil means every link is up. Dijkstra tests down[i] on
// the arc it is already indexing, so a masked row costs little more.
type CSR struct {
	off   []int32   // len N+1; off[u]..off[u+1] bounds u's out-links
	dst   []NodeID  // len 2M; link targets
	delay []float64 // len 2M; ByDelay weight array (also the delay accumulator input)
	cost  []float64 // len 2M; ByCost weight array (also the cost accumulator input)
}

// N returns the node count.
func (c *CSR) N() int { return len(c.off) - 1 }

// buildCSR flattens g. Adjacency order is preserved per node, so any
// code sensitive to neighbour scan order behaves exactly as it does on
// the slice-of-slice representation.
func buildCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		off:   make([]int32, n+1),
		dst:   make([]NodeID, 0, 2*g.M()),
		delay: make([]float64, 0, 2*g.M()),
		cost:  make([]float64, 0, 2*g.M()),
	}
	for u := 0; u < n; u++ {
		c.off[u] = int32(len(c.dst))
		for _, l := range g.adj[u] {
			c.dst = append(c.dst, l.To)
			c.delay = append(c.delay, l.Delay)
			c.cost = append(c.cost, l.Cost)
		}
	}
	c.off[n] = int32(len(c.dst))
	return c
}

// CSR returns the graph's flattened view, building and caching it on
// first use. The first call freezes the graph (AddEdge panics after
// it), so the view never goes stale: generators build, everything else
// reads, and the build cost is paid exactly once. Concurrent first calls
// may both build; the results are identical and one wins the publish
// race.
func (g *Graph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := buildCSR(g)
	if g.csr.CompareAndSwap(nil, c) {
		return c
	}
	return g.csr.Load()
}

// NumArcs returns the number of directed links (2M).
func (c *CSR) NumArcs() int { return len(c.dst) }

// Row returns the half-open arc-index range [lo, hi) of u's out-links.
// Arc indices are stable for the life of the CSR and dense over all
// directed links, so they serve as directed edge ids for per-link state
// (the simulator's busy horizons).
func (c *CSR) Row(u NodeID) (lo, hi int32) { return c.off[u], c.off[u+1] }

// ArcDst returns the target of arc i.
func (c *CSR) ArcDst(i int32) NodeID { return c.dst[i] }

// ArcDelay returns the delay of arc i.
func (c *CSR) ArcDelay(i int32) float64 { return c.delay[i] }

// ArcCost returns the cost of arc i.
func (c *CSR) ArcCost(i int32) float64 { return c.cost[i] }
