package topology

// NextHopTable is the unicast forwarding table implied by shortest-delay
// routing — the "link state unicast routing protocol" substrate the
// paper assumes every domain runs. It is a view over one lazy
// AllPairs(ByDelay) whose rows are rooted at the destination: links are
// undirected, so the first hop from u toward v is u's parent in the
// shortest-delay tree rooted at v, and everything a packet's route to v
// consults is that one row. Where several first hops are optimal the
// engine's tie-break ladder picks the lowest-id one, at every router on
// the way from the same tree, so hop-by-hop forwarding cannot loop.
//
// Nothing is computed until a destination is first consulted, and a
// topology change costs the destinations consulted before the next one.
// Reads start and finish searches (see AllPairs), so the table belongs
// to one goroutine.
type NextHopTable struct {
	to *AllPairs
}

// NextHop returns g's forwarding table with every link up.
func NextHop(g *Graph) *NextHopTable {
	return &NextHopTable{to: NewLazyAllPairs(g, ByDelay)}
}

// Hop returns the first hop on u's shortest-delay path to v (-1 when
// v == u or v is unreachable). It panics unless both are nodes of the
// graph.
//
//scmplint:hotpath
func (t *NextHopTable) Hop(u, v NodeID) NodeID {
	return t.to.Row(v).Parent[u]
}

// Invalidate reconverges the table onto the subgraph that excludes the
// arcs set in down (see CSR; nil = every link up), both arcs of a link
// together: O(n), no allocation once a first round has sized the free
// list. The table aliases down, so the caller must re-Invalidate after
// every change to it — then no row is ever filled against a mask newer
// than its invalidation (netsim's Faults.apply is built that way).
func (t *NextHopTable) Invalidate(down []bool) { t.to.reset(down) }

// Materialized reports how many destinations have been consulted since
// the table was built or last invalidated.
func (t *NextHopTable) Materialized() int { return t.to.Materialized() }
