package topology

import "scmp/internal/rng"

// arpanetEdges is the classic 20-node ARPANET map widely used as a fixed
// reference topology in multicast-routing evaluations (the paper uses
// "the ARPANET" as one of its three Fig. 8/9 topologies). 31 undirected
// links, average node degree ~3.1.
var arpanetEdges = [][2]NodeID{
	{0, 1}, {0, 2}, {0, 19},
	{1, 2}, {1, 13},
	{2, 3}, {2, 5},
	{3, 4}, {3, 9},
	{4, 5}, {4, 8},
	{5, 6},
	{6, 7}, {6, 9},
	{7, 8},
	{8, 9},
	{9, 10},
	{10, 11}, {10, 12},
	{11, 12}, {11, 14},
	{12, 13}, {12, 17},
	{13, 14},
	{14, 15}, {14, 18},
	{15, 16},
	{16, 17}, {16, 19},
	{17, 18},
	{18, 19},
}

// ArpanetN is the number of nodes in the ARPANET reference topology.
const ArpanetN = 20

// Arpanet returns the fixed 20-node ARPANET reference topology. Link
// delays and costs are drawn once from a fixed seed, so every call
// returns an identical instance (cost uniform in [10,100), delay uniform
// in (0, cost], matching the conventions of the random generators).
func Arpanet() *Graph {
	rng := rng.New(1969) // ARPANET's birth year; fixed instance
	g := New(ArpanetN)
	for _, e := range arpanetEdges {
		cost := 10 + float64(rng.Float64()*90)
		delay := rng.Float64() * cost
		if delay <= 0 {
			delay = cost / 2
		}
		g.MustAddEdge(e[0], e[1], delay, cost)
	}
	return g
}
