package topology

import (
	"fmt"
	"math"

	"scmp/internal/rng"
)

// WaxmanConfig parameterises the Waxman random-topology model exactly as
// the paper's §IV-A specifies it:
//
//   - Nodes are placed uniformly at random on a GridSize × GridSize
//     integer grid (the paper uses 32767 × 32767).
//   - For every node pair (u,v), an edge exists with probability
//     P(u,v) = Beta * exp(-d(u,v) / (Alpha * L)), where d is Manhattan
//     distance and L = 2*GridSize is the maximum Manhattan distance.
//   - Link cost = Manhattan distance between the endpoints.
//   - Link delay = Uniform(0, cost].
//
// The paper's headline configuration is N=100, Alpha=0.25, Beta=0.2.
type WaxmanConfig struct {
	N        int
	Alpha    float64 // larger -> more long edges
	Beta     float64 // larger -> higher degree
	GridSize int     // defaults to 32767
	// Connect forces connectivity by linking each stray component to the
	// giant component through the closest node pair. The paper's
	// simulations use connected graphs; default true via DefaultWaxman.
	Connect bool
}

// DefaultWaxman returns the paper's Fig. 7 configuration.
func DefaultWaxman(n int) WaxmanConfig {
	return WaxmanConfig{N: n, Alpha: 0.25, Beta: 0.2, GridSize: 32767, Connect: true}
}

// Point is a node position on the Waxman grid.
type Point struct{ X, Y int }

// Manhattan returns the Manhattan distance between two points.
func Manhattan(a, b Point) float64 {
	return math.Abs(float64(a.X-b.X)) + math.Abs(float64(a.Y-b.Y))
}

// WaxmanGraph bundles a generated graph with the node coordinates that
// produced it (useful for visualisation and for placement heuristics).
type WaxmanGraph struct {
	*Graph
	Pos []Point
}

// Waxman generates a random topology under cfg using rng. The result is
// connected when cfg.Connect is set; otherwise it may not be.
func Waxman(cfg WaxmanConfig, rng *rng.Rand) (*WaxmanGraph, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("topology: Waxman needs N > 0, got %d", cfg.N)
	}
	if cfg.GridSize <= 0 {
		cfg.GridSize = 32767
	}
	if cfg.Alpha <= 0 || cfg.Beta <= 0 {
		return nil, fmt.Errorf("topology: Waxman needs positive Alpha and Beta, got (%g,%g)", cfg.Alpha, cfg.Beta)
	}
	g := New(cfg.N)
	pos := make([]Point, cfg.N)
	for i := range pos {
		pos[i] = Point{rng.Intn(cfg.GridSize + 1), rng.Intn(cfg.GridSize + 1)}
	}
	L := 2 * float64(cfg.GridSize)
	addEdge := func(u, v NodeID) {
		d := Manhattan(pos[u], pos[v])
		cost := math.Max(d, 1) // co-located nodes still need a positive cost
		delay := rng.Float64() * cost
		if delay <= 0 {
			delay = cost / 2
		}
		g.MustAddEdge(u, v, delay, cost)
	}
	for u := 0; u < cfg.N; u++ {
		for v := u + 1; v < cfg.N; v++ {
			d := Manhattan(pos[u], pos[v])
			p := cfg.Beta * math.Exp(-d/(cfg.Alpha*L))
			if rng.Float64() < p {
				addEdge(NodeID(u), NodeID(v))
			}
		}
	}
	if cfg.Connect {
		connect(g, pos, addEdge)
	}
	return &WaxmanGraph{Graph: g, Pos: pos}, nil
}

// connect stitches all components to the largest one by repeatedly adding
// the geometrically closest inter-component edge.
func connect(g *Graph, pos []Point, addEdge func(u, v NodeID)) {
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		giant, stray := comps[0], comps[1]
		bu, bv := giant[0], stray[0]
		best := math.Inf(1)
		for _, u := range giant {
			for _, v := range stray {
				if d := Manhattan(pos[u], pos[v]); d < best {
					best, bu, bv = d, u, v
				}
			}
		}
		addEdge(bu, bv)
	}
}
