package topology

import (
	"math"
	"sync/atomic"

	"scmp/internal/runner"
)

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

// Of evaluates the weight on one link (the closure-free equivalent of
// the old func(Link) float64 API).
func (w Weight) Of(l Link) float64 {
	if w == ByCost {
		return l.Cost
	}
	return l.Delay
}

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
type Paths struct {
	Src    NodeID
	Dist   []float64 // minimised weight to each node; +Inf if unreachable
	Delay  []float64 // delay along the chosen path
	Cost   []float64 // cost along the chosen path
	Parent []NodeID  // predecessor on the chosen path; -1 for Src/unreachable

	// minCost memoises MinCost: Float64bits(min)+1, 0 when unset. The
	// +1 shift keeps 0 free as the sentinel (bits(0.0) is itself 0),
	// and the encoding is sound because path costs are never NaN. A
	// lost store race just rewrites the identical value.
	minCost atomic.Uint64
}

// Shortest runs Dijkstra from src under the given weight on the fast
// CSR engine; the result is the canonical shortest-path tree (see
// Engine for the tie-break ladder that makes "canonical" well defined).
func Shortest(g *Graph, src NodeID, w Weight) *Paths {
	e := Engine{csr: g.CSR()}
	return e.ShortestAvoid(src, w, nil)
}

// To reconstructs the path Src -> dst as a node sequence including both
// endpoints. It returns nil if dst is unreachable. The slice is
// allocated exactly once at the final length and filled back-to-front.
func (p *Paths) To(dst NodeID) []NodeID {
	if int(dst) >= len(p.Dist) || math.IsInf(p.Dist[dst], 1) {
		return nil
	}
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

// MinCost returns the smallest path cost in the row over every
// destination other than Src itself (whose cost is trivially 0 and
// would make the minimum vacuous). It is +Inf when no other node is
// reachable. The scan runs once and is memoised; concurrent callers
// may race the first computation, but both derive the same value from
// the row's immutable arrays, so the race is benign.
//
// DCDM's graft scan uses it to skip a whole candidate row: if even the
// cheapest path in the row costs strictly more than the best candidate
// found so far, no entry in the row can win the cost-first ladder.
//
//scmplint:hotpath
func (p *Paths) MinCost() float64 {
	if enc := p.minCost.Load(); enc != 0 {
		return math.Float64frombits(enc - 1)
	}
	min := math.Inf(1)
	for v := range p.Cost {
		if NodeID(v) == p.Src || math.IsInf(p.Dist[v], 1) {
			continue
		}
		if c := p.Cost[v]; c < min {
			min = c
		}
	}
	p.minCost.Store(math.Float64bits(min) + 1)
	return min
}

// Reachable reports whether dst is reachable from Src.
func (p *Paths) Reachable(dst NodeID) bool {
	return int(dst) < len(p.Dist) && !math.IsInf(p.Dist[dst], 1)
}

// AllPairs is a table of single-source shortest-path rows, one per
// source node. Rows are either built up front — sharded over the
// deterministic worker pool, each source row being an independent
// Dijkstra — or materialised lazily on first access (NewLazyAllPairs),
// which is how fault-driven recomputes that only consult a handful of
// sources stop paying a full n-Dijkstra rebuild.
//
// Row contents are identical in every mode: the engine's tie-break
// ladder makes each row a pure function of (graph, weight, mask), so
// eager, lazy and any parallel width produce byte-identical tables.
// AllPairs is safe for concurrent readers; lazy rows are published with
// a compare-and-swap, and a lost race just discards one identical row.
type AllPairs struct {
	g    *Graph
	w    Weight
	down []bool
	rows []atomic.Pointer[Paths]
}

// allPairsChunk is how many consecutive source rows one worker computes
// per job: big enough to amortise engine scratch setup, small enough to
// load-balance a 400-node build over 8 workers.
const allPairsChunk = 16

// NewAllPairs precomputes Shortest from every node under the given
// weight, sharding sources over the worker pool.
func NewAllPairs(g *Graph, w Weight) *AllPairs {
	return NewAllPairsAvoid(g, w, nil)
}

// NewAllPairsAvoid is NewAllPairs over the subgraph that excludes the
// arcs set in the mask (see CSR).
func NewAllPairsAvoid(g *Graph, w Weight, down []bool) *AllPairs {
	ap := NewLazyAllPairsAvoid(g, w, down)
	eachSourceChunk(g, func(e *Engine, lo, hi int) {
		for u := lo; u < hi; u++ {
			ap.rows[u].Store(e.ShortestAvoid(NodeID(u), w, down))
		}
	})
	return ap
}

// eachSourceChunk runs fn over the sources [0, n) in allPairsChunk-sized
// ranges on the deterministic worker pool. Each range owns a disjoint
// set of rows, so workers never write the same slot, and gets its own
// engine, whose scratch it reuses across its sources.
func eachSourceChunk(g *Graph, fn func(e *Engine, lo, hi int)) {
	n := g.N()
	runner.Map(runner.Options{}, (n+allPairsChunk-1)/allPairsChunk, func(ci int) struct{} {
		lo := ci * allPairsChunk
		fn(NewEngine(g), lo, min(lo+allPairsChunk, n))
		return struct{}{}
	})
}

// NewLazyAllPairs returns an AllPairs whose rows are computed on first
// access and memoised. Use it when only a few sources will be
// consulted — m-router path tables serving small groups, fault-repair
// re-grafts — and the full table would mostly go unread.
func NewLazyAllPairs(g *Graph, w Weight) *AllPairs {
	return NewLazyAllPairsAvoid(g, w, nil)
}

// NewLazyAllPairsAvoid is NewLazyAllPairs with an arc mask. The table
// keeps the slice, so the caller must hand it a mask nobody mutates
// afterwards (netsim's Faults.DownMask returns a copy for this): a live
// mask would make a row's content depend on when it is first read
// instead of when the table was created.
func NewLazyAllPairsAvoid(g *Graph, w Weight, down []bool) *AllPairs {
	return &AllPairs{g: g, w: w, down: down, rows: make([]atomic.Pointer[Paths], g.N())}
}

// N returns the number of source rows (the graph's node count).
func (ap *AllPairs) N() int { return len(ap.rows) }

// Row returns the shortest-path row from src, computing and memoising
// it on first access in lazy mode.
func (ap *AllPairs) Row(src NodeID) *Paths {
	if r := ap.rows[src].Load(); r != nil {
		return r
	}
	e := Engine{csr: ap.g.CSR()}
	r := e.ShortestAvoid(src, ap.w, ap.down)
	if ap.rows[src].CompareAndSwap(nil, r) {
		return r
	}
	return ap.rows[src].Load()
}

// Materialized reports how many rows have been computed so far — n for
// eager tables, the consulted-source count for lazy ones (capacity
// accounting and the lazy-mode tests).
func (ap *AllPairs) Materialized() int {
	m := 0
	for i := range ap.rows {
		if ap.rows[i].Load() != nil {
			m++
		}
	}
	return m
}

// MemoryBytes estimates the resident size of the materialised rows:
// each Paths row carries three float64 slices and one NodeID slice of
// the graph's length plus fixed header overhead. Lazy tables only pay
// for rows actually consulted — the figure the domains experiment
// reports as resident routing-table memory.
func (ap *AllPairs) MemoryBytes() int64 {
	n := int64(len(ap.rows))
	perRow := 32*n + 96 // 3 x []float64 + 1 x []NodeID payload, plus struct/slice headers
	return int64(ap.Materialized()) * perRow
}

// PathDelay sums link delays along a node sequence; it panics if the
// sequence is not a path in g.
func PathDelay(g *Graph, path []NodeID) float64 {
	sum := 0.0
	for i := 1; i < len(path); i++ {
		l, ok := g.Edge(path[i-1], path[i])
		if !ok {
			panic("topology: PathDelay on a non-path")
		}
		sum += l.Delay
	}
	return sum
}

// PathCost sums link costs along a node sequence; it panics if the
// sequence is not a path in g.
func PathCost(g *Graph, path []NodeID) float64 {
	sum := 0.0
	for i := 1; i < len(path); i++ {
		l, ok := g.Edge(path[i-1], path[i])
		if !ok {
			panic("topology: PathCost on a non-path")
		}
		sum += l.Cost
	}
	return sum
}
