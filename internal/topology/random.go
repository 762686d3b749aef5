package topology

import (
	"fmt"
	"math/rand"
)

// RandomConfig parameterises the flat random topologies used for the
// paper's Fig. 8/9 network-wide comparison ("random topologies generated
// by GT-ITM", network size 50, average node degree 3 and 5).
//
// The generator builds a random spanning tree first (guaranteeing
// connectivity, as GT-ITM's post-filtering does) and then adds uniformly
// random extra edges until the average degree target is met. Link costs
// are uniform in [MinCost, MaxCost]; link delay is uniform in (0, cost],
// matching the Waxman convention used elsewhere in the evaluation.
type RandomConfig struct {
	N         int
	AvgDegree float64
	MinCost   float64 // default 1
	MaxCost   float64 // default 100
}

// DefaultRandom returns the paper's Fig. 8/9 configuration for the given
// average degree (3 or 5 in the paper).
func DefaultRandom(n int, avgDegree float64) RandomConfig {
	return RandomConfig{N: n, AvgDegree: avgDegree, MinCost: 1, MaxCost: 100}
}

// Random generates a connected random graph with approximately the target
// average degree.
func Random(cfg RandomConfig, rng *rand.Rand) (*Graph, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("topology: Random needs N > 0, got %d", cfg.N)
	}
	if cfg.AvgDegree < 2 && cfg.N > 2 {
		return nil, fmt.Errorf("topology: Random needs AvgDegree >= 2 for connectivity, got %g", cfg.AvgDegree)
	}
	maxDeg := float64(cfg.N - 1)
	if !(cfg.AvgDegree <= maxDeg) { // NaN included
		return nil, fmt.Errorf("topology: AvgDegree %g impossible with N=%d", cfg.AvgDegree, cfg.N)
	}
	if cfg.MinCost <= 0 {
		cfg.MinCost = 1
	}
	if cfg.MaxCost < cfg.MinCost {
		cfg.MaxCost = cfg.MinCost
	}
	g := New(cfg.N)
	newEdge := func(u, v NodeID) {
		cost := cfg.MinCost + rng.Float64()*(cfg.MaxCost-cfg.MinCost)
		delay := rng.Float64() * cost
		if delay <= 0 {
			delay = cost / 2
		}
		g.MustAddEdge(u, v, delay, cost)
	}

	// Random spanning tree: attach each node (in random order) to a
	// uniformly chosen already-attached node.
	perm := rng.Perm(cfg.N)
	for i := 1; i < cfg.N; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[rng.Intn(i)])
		newEdge(u, v)
	}

	// Top up to the target edge count.
	target := int(cfg.AvgDegree * float64(cfg.N) / 2)
	maxEdges := cfg.N * (cfg.N - 1) / 2
	if target > maxEdges {
		target = maxEdges
	}
	for g.M() < target {
		u := NodeID(rng.Intn(cfg.N))
		v := NodeID(rng.Intn(cfg.N))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		newEdge(u, v)
	}
	return g, nil
}
