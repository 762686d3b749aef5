// Package experiment regenerates the paper's evaluation (§IV) — the
// Fig. 7 multicast-tree quality sweep, the Fig. 8 data/protocol overhead
// sweep, the Fig. 9 maximum end-to-end delay sweep, the §IV-A m-router
// placement study — and the companion studies (Studies in registry.go
// lists them all). Each averages over seeds, like the paper's 10-seed
// averages, and prints rows shaped like the paper's series; all share
// one sweep → fold → render skeleton (table.go).
package experiment

import (
	"fmt"

	"scmp/internal/rng"

	"scmp/internal/topology"
)

// pickMembers draws k distinct member routers, never the excluded node.
// It panics when fewer than k candidates exist: silently returning a
// smaller set would quietly shrink group sizes in sweeps and skew every
// averaged point, so callers must guard their sweep bounds (each Run*
// skips or clamps sizes against the topology first).
func pickMembers(rng *rng.Rand, n, k int, exclude topology.NodeID) []topology.NodeID {
	avail := n
	if exclude >= 0 && int(exclude) < n {
		avail--
	}
	if k > avail {
		panic(fmt.Sprintf(
			"experiment: pickMembers: %d members requested but only %d candidates (n=%d, exclude=%d)",
			k, avail, n, exclude))
	}
	perm := rng.Perm(n)
	out := make([]topology.NodeID, 0, k)
	for _, v := range perm {
		if topology.NodeID(v) == exclude {
			continue
		}
		out = append(out, topology.NodeID(v))
		if len(out) == k {
			break
		}
	}
	return out
}

// Topology names used across Fig. 8/9.
const (
	TopoArpanet = "ARPANET"
	TopoRand3   = "Random50-deg3"
	TopoRand5   = "Random50-deg5"
)

// delayScale converts the generators' abstract delay units to seconds
// for the packet-level simulations: raw values (1..100) are read as
// milliseconds, so propagation is fast relative to the paper's
// one-packet-per-second source.
const delayScale = 1e-3

// BuildTopology constructs one of the three Fig. 8/9 topologies with
// link delays in seconds. The ARPANET is a fixed instance; the random
// ones vary with the seed.
func BuildTopology(name string, seed int64) *topology.Graph {
	switch name {
	case TopoArpanet:
		return topology.Arpanet().ScaleDelays(delayScale)
	case TopoRand3:
		g, err := topology.Random(topology.DefaultRandom(50, 3), rng.New(seed))
		if err != nil {
			panic(err)
		}
		return g.ScaleDelays(delayScale)
	case TopoRand5:
		g, err := topology.Random(topology.DefaultRandom(50, 5), rng.New(seed))
		if err != nil {
			panic(err)
		}
		return g.ScaleDelays(delayScale)
	default:
		panic("experiment: unknown topology " + name)
	}
}

// Fig89Topologies lists the three evaluation topologies in paper order.
func Fig89Topologies() []string { return []string{TopoArpanet, TopoRand3, TopoRand5} }
