package topology

import (
	"math"
	"math/bits"
)

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
	p.start(c.N(), src, w, false)
	p.advance(c, w, nil, c.N(), -1)
}

// A lazy row starts sparse, sparseSlots slots wide, doubles as its
// search labels more routers, and is promoted to the dense layout when
// the next doubling would pass n/sparseDiv slots (see Paths; DESIGN.md
// §8 has why these are constants). A graph under sparseSlots*sparseDiv
// routers never has a sparse row at all.
const (
	sparseSlots = 32
	sparseDiv   = 8
)

// inf is a variable, not a call, so that the cursor's accessors stay
// within the inliner's budget.
var inf = math.Inf(1)

// start sizes p for an n-node graph and suspends a search from src
// under w at its very beginning: src queued at 0 and every other label
// +Inf. An out-of-range src leaves the frontier empty — the row is
// complete and reaches nothing. A lazy start on a graph big enough for
// it takes the sparse layout, where a label exists only once the search
// has touched its router, so its cost is sparseSlots, not n — and
// nothing on arrays a sparse search has used before.
func (p *Paths) start(n int, src NodeID, w Weight, lazy bool) {
	p.Src = src
	p.settled, p.queued, p.used = 0, 0, 0
	switch {
	case !lazy || n < sparseSlots*sparseDiv:
		p.dense(n)
	case p.ids == nil:
		p.alloc(sparseSlots, true)
	default:
		// A sparse row's arrays, however far they grew, serve the next
		// search as they are: only the router table needs clearing.
		for i := range p.tab {
			p.tab[i] = -1
		}
	}
	p.view(w)
	if src < 0 || int(src) >= n {
		return
	}
	s := int(src)
	if p.ids != nil {
		s = p.label(src)
	}
	p.Delay[s], p.Cost[s] = 0, 0
	p.order[0], p.pos[s], p.queued = int32(s), 0, 1
}

// alloc gives p fresh arrays of c slots: one []float64 of 2c holds
// Delay|Cost, one []int32 holds pos|order and, in the sparse layout,
// ids and the 2c-entry router table behind them. With Parent that is
// three arrays: 32 bytes a slot dense, what the four label arrays of a
// row without search state used to weigh, 44 sparse.
func (p *Paths) alloc(c int, sparse bool) {
	k := 2
	if sparse {
		k = 5
	}
	// A table's first sparse search, a growth step, a promotion, or a
	// larger graph than any run on this row before.
	lab := make([]float64, 2*c)
	idx := make([]int32, k*c)
	p.Parent = make([]NodeID, c)
	p.Delay, p.Cost = lab[:c:c], lab[c:]
	p.pos, p.order = idx[:c:c], idx[c:2*c:2*c]
	if sparse {
		p.ids, p.tab = idx[2*c:3*c:3*c], idx[3*c:]
		for i := range p.tab {
			p.tab[i] = -1
		}
	}
}

// dense lays p out with slot == router for an n-node graph, on its own
// arrays when they are big enough, and clears every label.
func (p *Paths) dense(n int) {
	if cap(p.Parent) < n {
		p.alloc(n, false)
	}
	p.Delay, p.Cost, p.Parent = p.Delay[:n], p.Cost[:n], p.Parent[:n]
	p.pos, p.order = p.pos[:n], p.order[:n]
	p.ids, p.tab = nil, nil
	for i := 0; i < n; i++ {
		p.Delay[i] = inf
		p.Cost[i] = inf
		p.Parent[i] = -1
		p.pos[i] = posUnseen
	}
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

// probe looks v up in a sparse row's router table: s is v's slot and at
// its table entry, or s is -1 and at the empty entry v would take. The
// table is open-addressed with linear probing, a power of two at most
// half full, hashed on the high bits of a Fibonacci multiply because
// the routers near a source tend to be numbered near it.
func (p *Paths) probe(v NodeID) (at uint32, s int32) {
	mask := uint32(len(p.tab) - 1)
	for at = uint32(v) * 0x9E3779B1 >> bits.LeadingZeros32(mask); ; at = (at + 1) & mask {
		if s = p.tab[at]; s < 0 || p.ids[s] == int32(v) {
			return at, s
		}
	}
}

// label returns v's slot in a sparse row, giving it the next free one —
// unseen, every label +Inf — if the search has not touched v before.
// The caller has made sure there is room (see advance).
func (p *Paths) label(v NodeID) int {
	at, s := p.probe(v)
	if s < 0 {
		s = int32(p.used)
		p.used++
		p.tab[at], p.ids[s] = s, int32(v)
		p.Delay[s], p.Cost[s] = inf, inf
		p.Parent[s], p.pos[s] = -1, posUnseen
	}
	return int(s)
}

// regrow moves a sparse row, wherever its search stands, onto arrays of
// twice the slots, or onto the dense layout for an n-node graph once
// that would pass n/sparseDiv or the caller wants the complete row.
// Slots keep their numbers across a growth step and become their
// routers' ids in a promotion; the frontier keeps its shape and the
// settle order its place at the back of order, so a Near cursor open on
// the row reads on as if nothing had happened.
func (p *Paths) regrow(n int, w Weight, promote bool) {
	old := *p
	c := 2 * len(old.ids)
	if c*sparseDiv > n {
		promote = true
	}
	if promote {
		c = n
		p.dense(n) // on new arrays: the old ones are smaller than n
	} else {
		p.alloc(c, true)
		p.used = 0
	}
	p.view(w)
	for s, v := range old.ids[:old.used] {
		t := int(v)
		if !promote {
			t = p.label(NodeID(v))
		}
		p.Delay[t], p.Cost[t], p.Parent[t], p.pos[t] = old.Delay[s], old.Cost[s], old.Parent[s], old.pos[s]
	}
	front, back := p.order[:old.queued], p.order[c-old.settled:]
	copy(front, old.order)
	copy(back, old.order[len(old.order)-old.settled:])
	if promote {
		for i, s := range front {
			front[i] = old.ids[s]
		}
		for i, s := range back {
			back[i] = old.ids[s]
		}
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
	return p.Dist, other, p.Parent, frontier{items: p.order[:p.queued], pos: p.pos, dist: p.Dist, ids: p.ids}
}

// advance resumes p's search over c under w and the arc mask down —
// the same three it was started and last advanced with. It settles
// nodes in the canonical (dist, id) order until target has been
// settled, max more nodes have been, or the frontier is empty. This is
// the only relaxation loop in the package: complete rows run it to
// exhaustion, the Near cursor a few pops at a time, and the two layouts
// differ only in how a router is turned into the slot of its labels.
func (p *Paths) advance(c *CSR, w Weight, down []bool, max int, target NodeID) {
	wt, wo := c.delay, c.cost
	if w == ByCost {
		wt, wo = c.cost, c.delay
	}
	dist, other, parent, h := p.search(w)
	for ; max > 0 && len(h.items) > 0; max-- {
		if h.ids != nil {
			// Settling a router labels at most its neighbours: make room
			// for them now, so that no array moves while it is scanned.
			u := h.ids[h.items[0]]
			if room := p.used + int(c.off[u+1]-c.off[u]); room > len(h.ids) {
				p.queued = len(h.items)
				for p.ids != nil && room > len(p.ids) {
					p.regrow(c.N(), w, false)
				}
				dist, other, parent, h = p.search(w)
			}
		}
		// The indexed heap decreases keys in place, so each node pops
		// exactly once; no stale-entry check needed.
		s := h.pop()
		u := NodeID(s)
		if h.ids != nil {
			u = NodeID(h.ids[s])
		}
		// The settle order fills the order array from the back, the
		// heap from the front; settled + queued never exceeds the slots
		// in use, so they never meet.
		p.settled++
		p.order[len(p.order)-p.settled] = s
		du, ou := dist[s], other[s]
		lo, hi := c.off[u], c.off[u+1]
		for i := lo; i < hi; i++ {
			if down != nil && down[i] {
				continue
			}
			v := int(c.dst[i])
			if h.ids != nil {
				v = p.label(c.dst[i])
			}
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
