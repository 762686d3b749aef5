package topology

import "math"

// Engine runs Dijkstra over a graph's CSR view with reusable scratch
// buffers, so repeated single-source runs (all-pairs shards, next-hop
// table rows, per-source experiment loops) stop allocating. An Engine
// is NOT safe for concurrent use — give each worker its own; they share
// the immutable CSR underneath.
//
// Determinism: the result of a run is a pure function of
// (graph, src, weight, mask), independent of heap internals and of
// neighbour scan order, because ties are broken explicitly twice over:
// the heap pops equal-dist nodes in node-id order, and the relaxation
// step prefers the lower-id predecessor on an exact dist tie. With
// strictly positive link weights every predecessor that achieves a
// node's final distance settles strictly before that node does, so by
// the time a node is popped its parent is the minimum-id predecessor
// among all optimal ones — no matter which worker computed the row or
// in what order the heap happened to surface equal keys. That is the
// argument that lets all-pairs rows be computed on any number of
// workers, or lazily at any later time, and still merge byte-identical.
type Engine struct {
	csr  *CSR
	done []bool
	heap nodeHeap
}

// NewEngine returns an engine over g's CSR view (built on first use and
// cached on the graph).
func NewEngine(g *Graph) *Engine {
	return &Engine{csr: g.CSR()}
}

// ShortestAvoid runs Dijkstra from src under w over the subgraph that
// excludes the arcs set in down (see CSR; nil = every link up). The
// returned Paths is freshly allocated and owned by the caller; only the
// engine's internal scratch (heap, done set) is reused.
func (e *Engine) ShortestAvoid(src NodeID, w Weight, down []bool) *Paths {
	p := &Paths{}
	e.ShortestInto(p, src, w, down)
	return p
}

// ShortestInto runs Dijkstra from src under w, writing the result into
// p's existing buffers (grown only when the graph is larger than any
// previous run). Callers that consume a row transiently — next-hop
// construction, per-source sweeps — reuse one Paths across sources and
// allocate nothing after the first call.
//
//scmplint:hotpath
func (e *Engine) ShortestInto(p *Paths, src NodeID, w Weight, down []bool) {
	n := e.csr.N()
	p.Src = src
	p.Dist = grow(p.Dist, n)
	p.Delay = grow(p.Delay, n)
	p.Cost = grow(p.Cost, n)
	p.Parent = grow(p.Parent, n)
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		p.Dist[i] = inf
		p.Delay[i] = inf
		p.Cost[i] = inf
		p.Parent[i] = -1
	}
	if n == 0 || src < 0 || int(src) >= n {
		return
	}
	e.done = grow(e.done, n)
	done := e.done
	for i := 0; i < n; i++ {
		done[i] = false
	}
	p.Dist[src], p.Delay[src], p.Cost[src] = 0, 0, 0

	c := e.csr
	wt := c.weights(w)
	dist, delay, cost, parent := p.Dist, p.Delay, p.Cost, p.Parent
	h := &e.heap
	h.reset(n)
	h.push(src, 0)
	for h.len() > 0 {
		u := h.pop().node
		// The indexed heap decreases keys in place, so each node pops
		// exactly once; no stale-entry check needed.
		done[u] = true
		du, dlu, dcu := dist[u], delay[u], cost[u]
		lo, hi := c.off[u], c.off[u+1]
		for i := lo; i < hi; i++ {
			if down != nil && down[i] {
				continue
			}
			v := c.dst[i]
			d := du + wt[i]
			if d < dist[v] {
				dist[v] = d
				delay[v] = dlu + c.delay[i]
				cost[v] = dcu + c.cost[i]
				parent[v] = u
				h.push(v, d)
			} else if d == dist[v] && u < parent[v] && !done[v] {
				// Exact dist tie: canonicalise on the lower-id
				// predecessor so the row does not depend on the order
				// equal-dist nodes left the heap. No re-push — v's key
				// is unchanged.
				delay[v] = dlu + c.delay[i]
				cost[v] = dcu + c.cost[i]
				parent[v] = u
			}
		}
	}
}

// grow returns s with length exactly n, reallocating only when capacity
// is insufficient — a first-call (or graph-growth) event, never a
// steady-state one, which is why the make carries a hotalloc ignore.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //scmplint:ignore hotalloc
	}
	return s[:n]
}
