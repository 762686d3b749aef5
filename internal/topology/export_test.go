package topology

// shortestAvoid is a fresh one-shot row from src under w over the
// subgraph without the arcs set in down (nil = every link up): the fill
// ShortestInto runs, with the mask production code reaches only through
// a table's Invalidate.
func shortestAvoid(g *Graph, src NodeID, w Weight, down []bool) *Paths {
	p := &Paths{}
	p.start(g.N(), src, w)
	p.advance(g.CSR(), w, down, g.N(), -1)
	return p
}

// Of evaluates the weight on one link (the closure-free equivalent of
// the old func(Link) float64 API).
func (w Weight) Of(l Link) float64 {
	if w == ByCost {
		return l.Cost
	}
	return l.Delay
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

// TransitNodes returns all transit (backbone) nodes.
func (i *TransitStubInfo) TransitNodes() []NodeID {
	var out []NodeID
	for v, r := range i.Roles {
		if r == RoleTransit {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// KeptRows counts the rows the table keeps; the scratch is not kept.
func (ap *AllPairs) KeptRows() (kept int) {
	for _, p := range ap.rows {
		if p != nil {
			kept++
		}
	}
	return kept
}

// Scratch reports the source of the search the scratch row holds (-1
// when none) and how many routers that search has labelled.
func (ap *AllPairs) Scratch() (src NodeID, labelled int) {
	if p := ap.scratch; p != nil {
		return p.Src, p.settled + p.queued
	}
	return -1, 0
}

// KeepAt is the label count past which a repeat search is kept.
func (ap *AllPairs) KeepAt() int { return ap.keepAt }
