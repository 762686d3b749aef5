package topology

// NextHopTable is the unicast forwarding table implied by shortest-delay
// routing, flattened to one contiguous []NodeID (row-major: entry
// (u, v) lives at u*n+v). Hop(u, v) is the first hop on u's
// shortest-delay path to v, or -1 when v is u or unreachable. The flat
// layout replaces the old [][]NodeID: a single allocation, no per-row
// pointer chase on the packet forwarding path, and row writes that
// shard cleanly over workers.
//
// Reconvergence is lazy and in place: Invalidate marks every row stale
// against a new arc mask, and Hop and Row refill a stale row on first
// use. A row is a pure function of the mask at its invalidation
// (Engine's tie-break ladder), so one filled late is bit-identical to
// what an eager rebuild would have written, and a topology change
// costs the rows consulted before the next one — at worst n serial
// Dijkstras, what the eager rebuild paid every time.
//
// A table that was never invalidated is immutable and safe for
// concurrent readers; once invalidated, reads write (the refill) and
// the table belongs to one goroutine.
type NextHopTable struct {
	n    int
	hops []NodeID

	stale []bool // stale[u]: row u predates the last Invalidate
	down  []bool // the mask stale rows refill against; nil = all links up
	eng   Engine
	row   Paths
	stack []NodeID
}

// Hop returns the first hop on u's shortest-delay path to v (-1 when
// v == u or v is unreachable).
//
//scmplint:hotpath
func (t *NextHopTable) Hop(u, v NodeID) NodeID {
	if t.stale[u] {
		t.refill(u)
	}
	return t.hops[int(u)*t.n+int(v)]
}

// Row returns u's row of the table. The slice aliases the table and
// must not be mutated; its contents are valid until the next
// Invalidate.
func (t *NextHopTable) Row(u NodeID) []NodeID {
	if t.stale[u] {
		t.refill(u)
	}
	return t.hops[int(u)*t.n : (int(u)+1)*t.n]
}

// Invalidate reconverges the table onto the subgraph that excludes the
// arcs set in down (see CSR; nil = every link up): O(n), no allocation.
// The table aliases down, so the caller must re-Invalidate after every
// change to it — then no row is ever filled against a mask newer than
// its invalidation (netsim's Faults.apply is built that way).
func (t *NextHopTable) Invalidate(down []bool) {
	t.down = down
	for u := range t.stale {
		t.stale[u] = true
	}
}

// Materialized reports how many rows are current: n once built, the
// consulted-source count after an Invalidate.
func (t *NextHopTable) Materialized() int {
	m := 0
	for _, s := range t.stale {
		if !s {
			m++
		}
	}
	return m
}

// refill recomputes stale row u; allocation-free once the first refill
// has sized the scratch.
//
//scmplint:hotpath
func (t *NextHopTable) refill(u NodeID) {
	t.eng.ShortestInto(&t.row, u, ByDelay, t.down)
	t.stack = fillFirstHops(t.hops[int(u)*t.n:(int(u)+1)*t.n], &t.row, u, t.stack)
	t.stale[u] = false
}

// NextHop computes the unicast forwarding table implied by
// shortest-delay routing. This is the "link state unicast routing
// protocol" substrate the paper assumes every domain runs. The build is
// eager and sharded like an all-pairs build; each chunk reuses one
// transient Paths row, writing first hops straight into its disjoint
// slice of the table.
func NextHop(g *Graph) *NextHopTable {
	n := g.N()
	t := &NextHopTable{
		n:     n,
		hops:  make([]NodeID, n*n),
		stale: make([]bool, n),
		eng:   Engine{csr: g.CSR()},
	}
	eachSourceChunk(g, func(e *Engine, lo, hi int) {
		var row Paths
		var stack []NodeID
		for u := lo; u < hi; u++ {
			e.ShortestInto(&row, NodeID(u), ByDelay, nil)
			stack = fillFirstHops(t.hops[u*n:(u+1)*n], &row, NodeID(u), stack)
		}
	})
	return t
}

// fillFirstHops writes u's next-hop row into dst from a shortest-path
// tree, memoising resolved prefixes so the whole row costs O(n) parent
// steps instead of one root walk per destination. stack is caller-owned
// scratch, returned for reuse.
func fillFirstHops(dst []NodeID, sp *Paths, u NodeID, stack []NodeID) []NodeID {
	for v := range dst {
		dst[v] = -1
	}
	for v := range dst {
		if NodeID(v) == u || sp.Parent[v] == -1 || dst[v] != -1 {
			continue
		}
		// Walk rootward until we hit the source or a node whose first
		// hop is already known, then unwind the walked suffix.
		w := NodeID(v)
		stack = stack[:0]
		for dst[w] == -1 && sp.Parent[w] != u {
			stack = append(stack, w)
			w = sp.Parent[w]
		}
		fh := dst[w]
		if fh == -1 {
			fh = w // sp.Parent[w] == u: w itself is the first hop
			dst[w] = w
		}
		for _, x := range stack {
			dst[x] = fh
		}
	}
	return stack
}
