package topology

import "math"

// Weight selects which link attribute a shortest-path computation
// minimises. It is an index into the CSR graph's precomputed per-weight
// edge arrays, so the Dijkstra inner loop reads a flat float64 slice
// instead of calling a closure per edge.
type Weight uint8

const (
	// ByDelay weights links by delay; shortest-delay paths are the
	// paper's P_sl ("shortest delay path").
	ByDelay Weight = iota
	// ByCost weights links by cost; least-cost paths are the paper's
	// P_lc.
	ByCost
)

// String names the weight for reports and test failures.
func (w Weight) String() string {
	if w == ByCost {
		return "cost"
	}
	return "delay"
}

// Paths holds the single-source shortest-path tree from Src under some
// weight, plus the path delay and cost accumulated along those paths
// (both are tracked regardless of which attribute was minimised, because
// DCDM needs the delay of a least-cost path and vice versa).
//
// A Paths is also the whole state of the Dijkstra search that fills it
// (ShortestInto has the argument for why a search can stop and
// resume): every *Paths this package hands out is complete — the
// frontier is empty and each label final. Every array is indexed by
// node. Only AllPairs holds suspended rows, and it shows them through
// the Near cursor alone, which reports settled nodes only.
type Paths struct {
	Src    NodeID
	Dist   []float64 // minimised weight to each node; +Inf if unreachable (aliases Delay or Cost)
	Delay  []float64 // delay along the chosen path
	Cost   []float64 // cost along the chosen path
	Parent []NodeID  // predecessor on the chosen path; -1 for Src/unreachable

	// Search state (see start and advance): pos[v] is router v's index
	// in the frontier heap, posUnseen or posSettled; order holds the
	// frontier heap in order[:queued] and the settle order, nearest
	// first, backwards from its last entry. A router the search has
	// labelled is queued or settled, so the two list every one of them
	// (see restart).
	pos     []int32
	order   []int32
	settled int
	queued  int
}

// To reconstructs the path Src -> dst as a node sequence including both
// endpoints. It returns nil if dst is unreachable or not a node of the
// graph. The slice is allocated exactly once at the final length and
// filled back-to-front.
func (p *Paths) To(dst NodeID) []NodeID {
	if !p.Reachable(dst) {
		return nil
	}
	return p.walk(dst)
}

// walk is To for a dst the row has a finite label for.
func (p *Paths) walk(dst NodeID) []NodeID {
	hops := 1
	for v := dst; v != p.Src; {
		par := p.Parent[v]
		if par == -1 {
			return nil // parent chain broken before reaching Src
		}
		hops++
		v = par
	}
	path := make([]NodeID, hops)
	for v, i := dst, hops-1; ; v, i = p.Parent[v], i-1 {
		path[i] = v
		if v == p.Src {
			return path
		}
	}
}

// Reachable reports whether dst is reachable from Src; an id outside
// [0, n) — core's "no upstream" is -1 — is not.
func (p *Paths) Reachable(dst NodeID) bool {
	return dst >= 0 && int(dst) < len(p.Dist) && !math.IsInf(p.Dist[dst], 1)
}

// AllPairs is a table of single-source shortest-path rows, one per
// source node, each started on first access as a resumable search:
// Near walks a row nearest-first and settles only as far as it is
// walked, Row finishes the search and returns the complete row. That
// is how a DCDM join pays, in time and in memory, for the distance to
// the tree instead of the size of the domain, and how fault-driven
// recomputes that only consult a handful of sources stop paying a full
// n-Dijkstra rebuild.
//
// A search Near starts runs in the table's one scratch row, which the
// next Near from another source without a kept row restarts over what
// the search labelled (see Paths.restart) — unless the search labelled
// more than keepAt routers, when the table keeps its row and takes a
// new scratch. So what a table holds follows the sources whose rows
// were worth completing, not every member that ever joined.
//
// A row is a pure function of (graph, weight, mask), and a stopped
// search holds a prefix of the full one (see ShortestInto), so a row
// resumed in any increments, or searched again from the start, is
// byte-identical to the one-shot row.
// Links are symmetric, so the row rooted at v is both "distance from v"
// and, read through Hop, "first hop toward v": one table serves the
// unicast substrate and the tree engines alike.
//
// Every table is lazy and has one writer: Row and Near start and
// advance searches in place, so a table belongs to one goroutine.
type AllPairs struct {
	csr     *CSR
	w       Weight
	down    []bool
	keepAt  int      // the scratch is kept once its search has labelled more routers (see Near)
	rows    []*Paths // the kept rows
	scratch *Paths   // the search of the last source Near found no kept row for
	free    []*Paths // rows retired by Invalidate, restarted by begin before it allocates
	started []uint64 // one bit per source started since the last Invalidate
	count   int      // the bits set in started
}

// NewLazyAllPairs returns a table under w with no row started yet and
// every link up until Invalidate says otherwise.
//
// keepAt is 0 under 256 routers, where every scratch search is kept,
// and otherwise the largest 32·2^k that is at most n/8: a search that
// far out has paid a fair share of a complete row, and one short of it
// is cheaper to search again than to keep n wide (DESIGN.md §8).
func NewLazyAllPairs(g *Graph, w Weight) *AllPairs {
	n := g.N()
	keepAt := 0
	if n >= 256 {
		for keepAt = 32; 2*keepAt <= n/8; keepAt *= 2 {
		}
	}
	return &AllPairs{csr: g.CSR(), w: w, keepAt: keepAt, rows: make([]*Paths, n), started: make([]uint64, (n+63)/64)}
}

// NextHop returns g's unicast forwarding table with every link up: a
// lazy AllPairs(ByDelay), read through Hop.
func NextHop(g *Graph) *AllPairs { return NewLazyAllPairs(g, ByDelay) }

// Row returns the complete shortest-path row from src: it starts the
// search on first access and finishes it if a cursor left it
// suspended, so a caller never sees a tentative label. The row is kept,
// the scratch too when it holds src's search.
func (ap *AllPairs) Row(src NodeID) *Paths {
	p := ap.rows[src]
	if p == nil {
		if s := ap.scratch; s != nil && s.Src == src {
			p, ap.scratch = s, nil
		} else {
			p = ap.begin(nil, src)
		}
		ap.rows[src] = p
	}
	if p.queued > 0 {
		p.advance(ap.csr, ap.w, ap.down, len(ap.rows), -1)
	}
	return p
}

// begin restarts p on a search from src, or a retired row when p is nil
// — a fresh, empty one when there is none — so that a row costs what
// its last search labelled, not n (see Paths.restart).
func (ap *AllPairs) begin(p *Paths, src NodeID) *Paths {
	if p == nil {
		if k := len(ap.free); k > 0 {
			p, ap.free = ap.free[k-1], ap.free[:k-1]
		} else {
			p = &Paths{}
			p.start(len(ap.rows), -1, ap.w)
		}
	}
	p.restart(src, ap.w)
	if bit := uint64(1) << (src % 64); ap.started[src/64]&bit == 0 {
		ap.started[src/64] |= bit
		ap.count++
	}
	return p
}

// Hop reads the table as the unicast forwarding table its weight
// implies — for a ByDelay table the "link state unicast routing
// protocol" substrate the paper assumes every domain runs. The first
// hop from u toward v is u's parent in the tree rooted at v, so
// everything a packet's route to v consults is that one row. Where
// several first hops are optimal the engine's tie-break ladder picks the
// lowest-id one, at every router on the way from the same tree, so
// hop-by-hop forwarding cannot loop. Hop is -1 when v == u or v is
// unreachable, and panics unless both are nodes of the graph.
func (ap *AllPairs) Hop(u, v NodeID) NodeID { return ap.Row(v).Parent[u] }

// Invalidate reconverges the table in place onto the subgraph that
// excludes the arcs set in down (see CSR; nil = every link up), both
// arcs of a link together — the only way a mask enters a table. Every
// kept row is retired to the free list, where begin restarts it, so a
// table that is invalidated and consulted over and over stops
// allocating: O(n), no allocation once a first round has sized the
// free list. The scratch stays the scratch, holding no search. Rows and
// cursors handed out before it are dead. The table aliases down, so the
// mask's owner must re-Invalidate after every change to it — then no
// row is ever filled against a mask newer than its invalidation
// (netsim's Faults.apply is built that way).
func (ap *AllPairs) Invalidate(down []bool) {
	ap.down = down
	for i, p := range ap.rows {
		if p != nil {
			ap.free = append(ap.free, p)
			ap.rows[i] = nil
		}
	}
	if ap.scratch != nil {
		ap.scratch.Src = -1
	}
	clear(ap.started)
	ap.count = 0
}

// Near is a cursor over one source's row in settle order — nearest
// first under the table's weight, exact ties by lower id. It advances
// the row's search only as far as it is walked, and it answers for
// settled nodes only: their labels are final and bit-identical to the
// complete row's (see ShortestInto), while a node still on the frontier, or
// not yet seen, reads as unreachable. Several cursors may walk one row;
// each keeps its own position and all share the search's progress.
//
// A cursor on a kept row lives until Invalidate. One on the scratch
// lives until the table's next Near from another source without a kept
// row, or until Invalidate, whichever comes first: either may restart
// the search it walks. Row(src) keeps the scratch it finds holding src,
// so cursors on it read on. DCDM's graft search holds its cursors for
// one join.
type Near struct {
	ap *AllPairs
	p  *Paths
	i  int // nodes reported so far
}

// Near returns a cursor at the start of src's row (src itself is the
// first node it reports): src's kept row, the scratch if it holds src's
// search, or else a search from src started in the scratch — after the
// table keeps the scratch's row if its search labelled more than keepAt
// routers.
func (ap *AllPairs) Near(src NodeID) Near {
	p := ap.rows[src]
	if p == nil {
		p = ap.scratch
		if p != nil && p.Src >= 0 && p.Src != src && p.settled+p.queued > ap.keepAt {
			ap.rows[p.Src], p = p, nil
		}
		if p == nil || p.Src != src {
			p = ap.begin(p, src)
			ap.scratch = p
		}
	}
	return Near{ap: ap, p: p}
}

// Next reports the next node in settle order, settling one more if the
// search has not got that far; ok is false once every reachable node
// has been reported.
func (c *Near) Next() (v NodeID, ok bool) {
	p := c.p
	if c.i == p.settled {
		if p.queued == 0 {
			return -1, false
		}
		p.advance(c.ap.csr, c.ap.w, c.ap.down, 1, -1)
	}
	c.i++
	return NodeID(p.order[len(p.order)-c.i]), true
}

// Settle advances the search until v is settled and reports whether it
// is; false means v is unreachable (the search is then exhausted) or
// not a node of the graph. The cursor's position does not move.
func (c *Near) Settle(v NodeID) bool {
	if c.final(v) {
		return true
	}
	if c.p.queued == 0 || uint(v) >= uint(len(c.ap.rows)) {
		return false
	}
	c.p.advance(c.ap.csr, c.ap.w, c.ap.down, len(c.ap.rows), v)
	return c.final(v)
}

// final reports whether v is settled in the cursor's row, its labels
// final — false on the frontier, never labelled, or not a node of the
// graph at all (core's "no upstream" is -1). It is written to inline
// into the accessors below.
func (c *Near) final(v NodeID) bool {
	return uint(v) < uint(len(c.p.pos)) && c.p.pos[v] == posSettled
}

// Delay returns the delay along the row's path to v, +Inf unless v is
// settled.
func (c *Near) Delay(v NodeID) float64 {
	if c.final(v) {
		return c.p.Delay[v]
	}
	return inf
}

// Cost returns the cost along the row's path to v, +Inf unless v is
// settled.
func (c *Near) Cost(v NodeID) float64 {
	if c.final(v) {
		return c.p.Cost[v]
	}
	return inf
}

// To returns the row's path from its source to v (see Paths.To), nil
// unless v is settled.
func (c *Near) To(v NodeID) []NodeID {
	if !c.final(v) {
		return nil
	}
	return c.p.walk(v)
}

// Materialized reports how many sources have had a search started
// since the table was built or last invalidated, kept or not: the
// consulted-source count (capacity accounting and the lazy-mode tests).
func (ap *AllPairs) Materialized() int { return ap.count }

// MemoryBytes is the modelled resident size of a row for every source
// Materialized counts, 32n + 96 bytes each: n entries of 32 bytes (the
// four label arrays a complete row shows its readers) plus fixed header
// overhead — what an m-router that keeps whole routing rows for every
// source it consulted holds, whatever this process keeps for them: a
// kept row weighs just that, and a search the scratch has moved on
// from keeps nothing. A table pays only for rows actually
// consulted. The domains experiment reports this
// figure as resident routing-table memory, so the formula is part of
// that table's byte-identity contract and stays as it is (DESIGN.md §8
// has the decision record); measured memory is the benchmark's
// peak_rss_mb.
func (ap *AllPairs) MemoryBytes() int64 {
	n := int64(len(ap.rows))
	perRow := 32*n + 96
	return int64(ap.Materialized()) * perRow
}
