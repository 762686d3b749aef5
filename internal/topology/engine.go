package topology

import "math"

// ShortestInto fills p with the complete row from src under w, every
// link up, reusing p's arrays when they are big enough: a per-source
// sweep reuses one Paths and allocates nothing after the first call.
//
// Determinism: a row is a pure function of (graph, src, weight, mask),
// independent of heap internals and of neighbour scan order, because
// advance breaks ties explicitly twice over: the heap pops equal-dist
// nodes in node-id order, and the relaxation step prefers the lower-id
// predecessor on an exact dist tie. With strictly positive link weights
// every predecessor that achieves a node's final distance settles
// strictly before that node does, so by the time a node is popped its
// parent is the minimum-id predecessor among all optimal ones — no
// matter when the row is computed or in what order the heap happened to
// surface equal keys.
//
// It is also what makes a search resumable: the pop sequence is a pure
// function of the inputs, a popped node's labels and parent are never
// written again, and so a search stopped after k pops holds exactly the
// first k nodes of the full run, each bit-identical to its entry in the
// one-shot row ShortestInto fills. That prefix argument is why a lazy
// AllPairs row, advanced in any increments, equals this row.
func (g *Graph) ShortestInto(p *Paths, src NodeID, w Weight) {
	c := g.CSR()
	p.start(c.N(), src, w)
	p.advance(c, w, nil, c.N(), -1)
}

// inf is a variable, not a call, so that the cursor's accessors stay
// within the inliner's budget.
var inf = math.Inf(1)

// start sizes p for an n-node graph, on its own arrays when they are
// big enough, clears every label and restarts it from src under w.
func (p *Paths) start(n int, src NodeID, w Weight) {
	if cap(p.Parent) < n {
		// A fresh row, or a larger graph than any run on this row
		// before. One []float64 of 2n holds Delay|Cost, one []int32
		// pos|order: with Parent that is three arrays, 32 bytes a
		// router, what the four label arrays of a row without search
		// state used to weigh.
		lab := make([]float64, 2*n)
		idx := make([]int32, 2*n)
		p.Parent = make([]NodeID, n)
		p.Delay, p.Cost = lab[:n:n], lab[n:]
		p.pos, p.order = idx[:n:n], idx[n:]
	}
	p.Delay, p.Cost, p.Parent = p.Delay[:n], p.Cost[:n], p.Parent[:n]
	p.pos, p.order = p.pos[:n], p.order[:n]
	for v := range int32(n) {
		p.unlabel(v)
	}
	p.settled, p.queued = 0, 0
	p.restart(src, w)
}

// restart suspends a search from src under w at its very beginning on
// p's arrays, already sized for the graph: src queued at 0 and every
// other label +Inf. It clears only the routers the last search
// labelled — each of them is queued or settled, so order lists them
// all — and so costs what that search touched, not n. An out-of-range
// src leaves the frontier empty: the row is complete and reaches
// nothing.
func (p *Paths) restart(src NodeID, w Weight) {
	n := len(p.order)
	for _, v := range p.order[:p.queued] {
		p.unlabel(v)
	}
	for _, v := range p.order[n-p.settled:] {
		p.unlabel(v)
	}
	p.Src, p.settled, p.queued = src, 0, 0
	p.view(w)
	if src < 0 || int(src) >= n {
		return
	}
	p.Delay[src], p.Cost[src] = 0, 0
	p.order[0], p.pos[src], p.queued = int32(src), 0, 1
}

// unlabel returns router v to unseen, every label +Inf.
func (p *Paths) unlabel(v int32) {
	p.Delay[v], p.Cost[v], p.Parent[v], p.pos[v] = inf, inf, -1, posUnseen
}

// view points Dist at whichever of Delay and Cost a search under w
// minimises: the two sums are the same additions in the same order
// either way, so Dist agrees with its twin bit for bit.
func (p *Paths) view(w Weight) {
	p.Dist = p.Delay
	if w == ByCost {
		p.Dist = p.Cost
	}
}

// search returns the views advance works on: dist is the minimised sum
// and other the attribute carried along — which of Delay and Cost plays
// which part is the weight's choice — and h the frontier over them.
func (p *Paths) search(w Weight) (dist, other []float64, parent []NodeID, h frontier) {
	other = p.Cost
	if w == ByCost {
		other = p.Delay
	}
	return p.Dist, other, p.Parent, frontier{items: p.order[:p.queued], pos: p.pos, dist: p.Dist}
}

// advance resumes p's search over c under w and the arc mask down —
// the same three it was started and last advanced with. It settles
// nodes in the canonical (dist, id) order until target has been
// settled, max more nodes have been, or the frontier is empty. This is
// the only relaxation loop in the package: complete rows run it to
// exhaustion, the Near cursor a few pops at a time.
func (p *Paths) advance(c *CSR, w Weight, down []bool, max int, target NodeID) {
	wt, wo := c.delay, c.cost
	if w == ByCost {
		wt, wo = c.cost, c.delay
	}
	dist, other, parent, h := p.search(w)
	for ; max > 0 && len(h.items) > 0; max-- {
		// The indexed heap decreases keys in place, so each node pops
		// exactly once; no stale-entry check needed.
		s := h.pop()
		u := NodeID(s)
		// The settle order fills the order array from the back, the
		// heap from the front; settled + queued never exceeds n, so
		// they never meet.
		p.settled++
		p.order[len(p.order)-p.settled] = s
		du, ou := dist[s], other[s]
		lo, hi := c.off[u], c.off[u+1]
		for i := lo; i < hi; i++ {
			if down != nil && down[i] {
				continue
			}
			v := int(c.dst[i])
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
