package topology

import (
	"container/heap"
	"math"
)

// This file preserves the original container/heap Dijkstra as the
// reference implementation the fast engine is differentially tested
// against (see equivalence_test.go).
//
// The only change from the historical code is the same explicit
// relaxation tie-break the engine uses — on an exact dist tie the
// lower-id predecessor wins — which makes the reference's output a pure
// function of the graph rather than of container/heap's sift order, so
// "fast == ref" is a meaningful exact-equality gate.

type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist < q[j].dist {
		return true
	}
	if q[j].dist < q[i].dist {
		return false
	}
	return q[i].node < q[j].node
}
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// shortestRef runs Dijkstra from src under w using container/heap and
// per-link weight evaluation — the slow path the engine must match
// exactly. down is an arc mask (see CSR): the j-th entry of g.adj[u] is
// arc off[u]+j, the order buildCSR flattens in.
func shortestRef(g *Graph, src NodeID, w Weight, down []bool) *Paths {
	n := g.N()
	p := &Paths{
		Src:    src,
		Dist:   make([]float64, n),
		Delay:  make([]float64, n),
		Cost:   make([]float64, n),
		Parent: make([]NodeID, n),
	}
	for i := range p.Dist {
		p.Dist[i] = math.Inf(1)
		p.Delay[i] = math.Inf(1)
		p.Cost[i] = math.Inf(1)
		p.Parent[i] = -1
	}
	if n == 0 || !g.valid(src) {
		return p
	}
	p.Dist[src], p.Delay[src], p.Cost[src] = 0, 0, 0
	done := make([]bool, n)
	q := pq{{src, 0}}
	for len(q) > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		lo, _ := g.CSR().Row(u)
		for j, l := range g.adj[u] {
			if down != nil && down[int(lo)+j] {
				continue
			}
			d := p.Dist[u] + w.Of(l)
			if d < p.Dist[l.To] {
				p.Dist[l.To] = d
				p.Delay[l.To] = p.Delay[u] + l.Delay
				p.Cost[l.To] = p.Cost[u] + l.Cost
				p.Parent[l.To] = u
				heap.Push(&q, pqItem{l.To, d})
			} else if d == p.Dist[l.To] && u < p.Parent[l.To] && !done[l.To] {
				p.Delay[l.To] = p.Delay[u] + l.Delay
				p.Cost[l.To] = p.Cost[u] + l.Cost
				p.Parent[l.To] = u
			}
		}
	}
	return p
}
