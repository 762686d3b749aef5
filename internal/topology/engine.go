package topology

import "math"

// Engine runs Dijkstra over a graph's CSR view. All of a search's state
// lives in the Paths row it fills (see Paths), so callers that consume
// rows transiently — all-pairs shards, next-hop table rows, per-source
// experiment loops — reuse one Paths across sources and stop
// allocating; the engine itself only names the immutable CSR and may
// be shared.
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
//
// It is also what makes a search resumable: the pop sequence is a pure
// function of the inputs, a popped node's labels and parent are never
// written again, and so a search stopped after k pops holds exactly
// the first k nodes of the full run, each bit-identical to its entry
// in the complete row.
type Engine struct {
	csr *CSR
}

// NewEngine returns an engine over g's CSR view (built on first use and
// cached on the graph).
func NewEngine(g *Graph) *Engine {
	return &Engine{csr: g.CSR()}
}

// ShortestAvoid runs Dijkstra from src under w over the subgraph that
// excludes the arcs set in down (see CSR; nil = every link up). The
// returned Paths is freshly allocated and owned by the caller.
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
	p.start(e.csr.N(), src, w)
	p.advance(e.csr, w, down, e.csr.N(), -1)
}

// start sizes p for an n-node graph and suspends a search from src
// under w at its very beginning: every label +Inf, src queued at 0.
// An out-of-range src leaves the frontier empty — the row is complete
// and reaches nothing.
//
// One []float64 of 2n holds Delay|Cost and Dist is a view of whichever
// the search minimises (the two sums are the same additions in the
// same order, so they agree bit for bit); one []int32 of 2n holds the
// heap positions and the order array the frontier and the settle order
// share. With Parent that is 32 bytes a node in three arrays, what the
// four label arrays of a row without search state used to weigh.
//
//scmplint:hotpath
func (p *Paths) start(n int, src NodeID, w Weight) {
	p.Src = src
	if cap(p.Parent) < n {
		// A source's first touch, or a larger graph than any run before.
		lab := make([]float64, 2*n) //scmplint:ignore hotalloc
		idx := make([]int32, 2*n)   //scmplint:ignore hotalloc
		p.Delay, p.Cost = lab[:n:n], lab[n:]
		p.pos, p.order = idx[:n:n], idx[n:]
		p.Parent = make([]NodeID, n) //scmplint:ignore hotalloc
	}
	p.Delay, p.Cost, p.Parent = p.Delay[:n], p.Cost[:n], p.Parent[:n]
	p.pos, p.order = p.pos[:n], p.order[:n]
	p.Dist = p.Delay
	if w == ByCost {
		p.Dist = p.Cost
	}
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		p.Delay[i] = inf
		p.Cost[i] = inf
		p.Parent[i] = -1
		p.pos[i] = posUnseen
	}
	p.settled, p.queued = 0, 0
	if src < 0 || int(src) >= n {
		return
	}
	p.Delay[src], p.Cost[src] = 0, 0
	p.order[0], p.pos[src], p.queued = int32(src), 0, 1
}

// advance resumes p's search over c under w and the arc mask down —
// the same three it was started and last advanced with. It settles
// nodes in the canonical (dist, id) order until target has been
// settled, max more nodes have been, or the frontier is empty. This is
// the only relaxation loop in the package: complete rows run it to
// exhaustion, the Near cursor a few pops at a time.
//
//scmplint:hotpath
func (p *Paths) advance(c *CSR, w Weight, down []bool, max int, target NodeID) {
	// dist is the minimised sum and other the attribute carried along;
	// which of Delay and Cost plays which part is the weight's choice.
	wt, wo, other := c.delay, c.cost, p.Cost
	if w == ByCost {
		wt, wo, other = c.cost, c.delay, p.Delay
	}
	dist, parent := p.Dist, p.Parent
	h := frontier{items: p.order[:p.queued], pos: p.pos, dist: dist}
	n := len(p.order)
	for ; max > 0 && len(h.items) > 0; max-- {
		// The indexed heap decreases keys in place, so each node pops
		// exactly once; no stale-entry check needed.
		u := NodeID(h.pop())
		// The settle order fills the order array from the back, the
		// heap from the front; settled + queued <= n, so they never meet.
		p.settled++
		p.order[n-p.settled] = int32(u)
		du, ou := dist[u], other[u]
		lo, hi := c.off[u], c.off[u+1]
		for i := lo; i < hi; i++ {
			if down != nil && down[i] {
				continue
			}
			v := c.dst[i]
			d := du + wt[i]
			if d < dist[v] {
				dist[v] = d
				other[v] = ou + wo[i]
				parent[v] = u
				h.push(int32(v))
			} else if d == dist[v] && u < parent[v] && h.pos[v] != posSettled {
				// Exact dist tie: canonicalise on the lower-id
				// predecessor so the row does not depend on the order
				// equal-dist nodes left the heap. No re-push — v's key
				// is unchanged.
				other[v] = ou + wo[i]
				parent[v] = u
			}
		}
		if u == target {
			break
		}
	}
	p.queued = len(h.items)
}
