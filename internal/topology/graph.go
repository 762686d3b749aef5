// Package topology provides the network graph model used throughout the
// reproduction: undirected graphs whose links carry a (delay, cost) pair,
// the topology generators from the paper's evaluation (Waxman model,
// flat random graphs with a target average degree, and the ARPANET map),
// and shortest-path machinery (Dijkstra by delay and by cost).
//
// Links are symmetric, as the paper assumes: "any link has the same delay
// and cost in both directions".
package topology

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// NodeID identifies a router in the graph. IDs are dense: 0..N-1.
type NodeID int

// Link is one direction of a symmetric edge.
type Link struct {
	To    NodeID
	Delay float64 // link delay: queueing + transmission + propagation
	Cost  float64 // link cost: a function of utilisation
}

// Graph is an undirected graph with per-link delay and cost. Construct
// with New and AddEdge; both directions of an edge always carry the same
// delay and cost. A graph is frozen once it has been routed over (its
// CSR view exists): the topology of a run is fixed, a fault masks arcs
// and never rewires, so AddEdge then panics. Clone and TryScaleDelays
// derive a new, editable graph.
type Graph struct {
	adj [][]Link
	m   int // number of undirected edges

	// csr caches the flattened CSR view built on first routing use; its
	// presence freezes the graph (see CSR in csr.go).
	csr atomic.Pointer[CSR]
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{adj: make([][]Link, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// checkLink is the link rule: delay and cost are finite and at least
// 2^-1022, the smallest normal float64. Zero-delay links would let the
// discrete-event simulator schedule infinite instantaneous loops, and a
// subnormal delay vanishes the same way from any sum with a clock
// reading; an infinite one makes every route across the link
// unreachable.
func checkLink(delay, cost float64) error {
	for _, x := range [2]float64{delay, cost} {
		if !(x >= 0x1p-1022) || math.IsInf(x, 1) {
			return fmt.Errorf("needs finite delay and cost >= 2^-1022, got (%g,%g)", delay, cost)
		}
	}
	return nil
}

// AddEdge adds the symmetric edge {u,v} with the given delay and cost.
// It returns an error on self-loops, duplicate edges, out-of-range nodes,
// or a delay or cost that breaks the link rule (checkLink). It panics on
// a graph already routed over: mutating a topology mid-run is a bug.
func (g *Graph) AddEdge(u, v NodeID, delay, cost float64) error {
	if g.csr.Load() != nil {
		panic(fmt.Sprintf("topology: AddEdge {%d,%d} on a graph already routed over; Clone it first", u, v))
	}
	if u == v {
		return fmt.Errorf("topology: self-loop at %d", u)
	}
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("topology: edge {%d,%d} out of range (n=%d)", u, v, g.N())
	}
	if err := checkLink(delay, cost); err != nil {
		return fmt.Errorf("topology: edge {%d,%d} %w", u, v, err)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], Link{To: v, Delay: delay, Cost: cost})
	g.adj[v] = append(g.adj[v], Link{To: u, Delay: delay, Cost: cost})
	g.m++
	return nil
}

// MustAddEdge is AddEdge but panics on error; for hand-built topologies.
func (g *Graph) MustAddEdge(u, v NodeID, delay, cost float64) {
	if err := g.AddEdge(u, v, delay, cost); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < len(g.adj) }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	for _, l := range g.adj[u] {
		if l.To == v {
			return true
		}
	}
	return false
}

// Edge returns the link record from u toward v.
func (g *Graph) Edge(u, v NodeID) (Link, bool) {
	if !g.valid(u) {
		return Link{}, false
	}
	for _, l := range g.adj[u] {
		if l.To == v {
			return l, true
		}
	}
	return Link{}, false
}

// Neighbors returns the links leaving u. The returned slice is owned by
// the graph and must not be mutated.
func (g *Graph) Neighbors(u NodeID) []Link {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// Degree returns the number of links at u.
func (g *Graph) Degree(u NodeID) int { return len(g.Neighbors(u)) }

// AvgDegree returns the average node degree (2M/N).
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.N())
}

// Connected reports whether the graph is connected (true for N<=1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	return len(g.Component(0)) == g.N()
}

// Component returns the set of nodes reachable from start, in BFS order.
func (g *Graph) Component(start NodeID) []NodeID {
	if !g.valid(start) {
		return nil
	}
	seen := make([]bool, g.N())
	seen[start] = true
	order := []NodeID{start}
	for i := 0; i < len(order); i++ {
		for _, l := range g.adj[order[i]] {
			if !seen[l.To] {
				seen[l.To] = true
				order = append(order, l.To)
			}
		}
	}
	return order
}

// Components returns all connected components, each sorted, largest
// first; components of equal size come in order of their lowest id.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.N())
	var comps [][]NodeID
	for u := 0; u < g.N(); u++ {
		if seen[u] {
			continue
		}
		comp := g.Component(NodeID(u))
		for _, v := range comp {
			seen[v] = true
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	// Stable: equal sizes keep discovery order, lowest id first.
	slices.SortStableFunc(comps, func(a, b []NodeID) int { return cmp.Compare(len(b), len(a)) })
	return comps
}

// Diameter returns the longest shortest-delay path length over all node
// pairs and the path realising it, first endpoint first — the row that
// found the pair already holds it. The path is nil when no two nodes are
// connected. O(N * Dijkstra).
func (g *Graph) Diameter() (float64, []NodeID) {
	best := 0.0
	var path []NodeID
	var sp Paths
	for u := 0; u < g.N(); u++ {
		g.ShortestInto(&sp, NodeID(u), ByDelay)
		bv := NodeID(-1)
		for v := 0; v < g.N(); v++ {
			if d := sp.Dist[v]; !math.IsInf(d, 1) && d > best {
				best, bv = d, NodeID(v)
			}
		}
		if bv >= 0 {
			path = sp.To(bv)
		}
	}
	return best, path
}

// ScaleDelays returns a copy of the graph with every link delay
// multiplied by factor (costs unchanged). The generators express delay
// in abstract cost-proportional units; packet-level simulations convert
// them to seconds (e.g. factor 1e-3 reads the raw values as
// milliseconds), so that a one-packet-per-second source is slow relative
// to propagation, as in the paper's NS-2 setup. It panics where
// TryScaleDelays returns an error; use it for factors known to be good.
func (g *Graph) ScaleDelays(factor float64) *Graph {
	c, err := g.TryScaleDelays(factor)
	if err != nil {
		panic(err)
	}
	return c
}

// TryScaleDelays is ScaleDelays for a factor read from input. It returns
// an error when a scaled delay breaks the link rule (checkLink), or when
// the scaled delays sum past the largest float64, so that a path's
// delay could overflow.
func (g *Graph) TryScaleDelays(factor float64) (*Graph, error) {
	c := g.Clone()
	total := 0.0
	for u := range c.adj {
		for i := range c.adj[u] {
			l := &c.adj[u][i]
			l.Delay *= factor
			if err := checkLink(l.Delay, l.Cost); err != nil {
				return nil, fmt.Errorf("topology: delays scaled by %g: edge {%d,%d} %w", factor, u, l.To, err)
			}
			if NodeID(u) < l.To {
				total += l.Delay
			}
		}
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("topology: delays scaled by %g overflow a path's delay", factor)
	}
	return c, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	c.m = g.m
	for u := range g.adj {
		c.adj[u] = append([]Link(nil), g.adj[u]...)
	}
	return c
}
