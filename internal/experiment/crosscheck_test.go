package experiment

// Cross-validation: each protocol's emergent packet paths must equal
// the corresponding algorithmic tree from internal/mtree, computed
// independently. This ties the packet-level implementations to the
// graph-level ground truth.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/topology"
)

const xgrp packet.GroupID = 1

// dataLinks runs one data packet and returns the set of undirected
// links DATA crossed.
func dataLinks(n *netsim.Network, src topology.NodeID) map[[2]topology.NodeID]bool {
	links := map[[2]topology.NodeID]bool{}
	old := n.Trace
	n.Trace = func(from, to topology.NodeID, pkt *netsim.Packet) {
		if pkt.Kind == packet.Data {
			a, b := from, to
			if a > b {
				a, b = b, a
			}
			links[[2]topology.NodeID{a, b}] = true
		}
	}
	n.SendData(src, xgrp, 100)
	n.Run()
	n.Trace = old
	return links
}

// treeLinks returns a tree's undirected edge set, restricted to the
// paths from root to the given members.
func treeLinks(tr *mtree.Tree, members []topology.NodeID) map[[2]topology.NodeID]bool {
	links := map[[2]topology.NodeID]bool{}
	for _, m := range members {
		path := tr.PathToRoot(m)
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			if a > b {
				a, b = b, a
			}
			links[[2]topology.NodeID{a, b}] = true
		}
	}
	return links
}

func sameLinks(a, b map[[2]topology.NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Property: MOSPF's data packets traverse exactly the shortest-delay
// source tree restricted to member paths — the same tree mtree.SPT
// computes (both use the identical deterministic Dijkstra).
func TestPropertyMOSPFDataEqualsSPT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Random(topology.DefaultRandom(18, 4), rng)
		if err != nil {
			return false
		}
		n := netsim.New(g, mospf.New())
		members := pickMembers(rng, g.N(), 5, -1)
		src := topology.NodeID(rng.Intn(g.N()))
		for _, m := range members {
			n.HostJoin(m, xgrp)
		}
		n.Run()
		got := dataLinks(n, src)
		spt := mtree.SPT(g, src, members, topology.NewLazyAllPairs(g, topology.ByDelay))
		want := treeLinks(spt, membersExcluding(members, src))
		return sameLinks(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: DVMRP, once its prunes converge, forwards data on exactly
// the shortest-delay source tree restricted to member paths.
func TestPropertyDVMRPSteadyStateEqualsSPT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Random(topology.DefaultRandom(18, 4), rng)
		if err != nil {
			return false
		}
		n := netsim.New(g, dvmrp.New(1e9 /* prunes never expire */))
		members := pickMembers(rng, g.N(), 5, -1)
		src := topology.NodeID(rng.Intn(g.N()))
		for _, m := range members {
			n.HostJoin(m, xgrp)
		}
		// Warm up: prunes propagate lazily, one hop per packet in the
		// worst case, so a few rounds converge the broadcast tree.
		for i := 0; i < g.N(); i++ {
			n.SendData(src, xgrp, 100)
			n.Run()
		}
		got := dataLinks(n, src)
		spt := mtree.SPT(g, src, members, topology.NewLazyAllPairs(g, topology.ByDelay))
		want := treeLinks(spt, membersExcluding(members, src))
		return sameLinks(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: CBT's installed branches are the unicast shortest-delay
// routes toward the core — each member's upstream chain equals the
// unicast path the join followed.
func TestPropertyCBTBranchesFollowUnicastRoutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Random(topology.DefaultRandom(18, 4), rng)
		if err != nil {
			return false
		}
		core := topology.NodeID(0)
		c := cbt.New(core)
		n := netsim.New(g, c)
		members := pickMembers(rng, g.N(), 5, core)
		// Join strictly one at a time so each join's interception point
		// is deterministic.
		for _, m := range members {
			n.HostJoin(m, xgrp)
			n.Run()
		}
		// Each member's installed upstream chain must be a prefix-wise
		// subset of unicast routes toward the core: at every on-tree
		// router, the upstream equals the unicast next hop (joins are
		// forwarded along Next[at][core] and acks retrace the path).
		for _, m := range members {
			at := m
			for hops := 0; at != core; hops++ {
				if hops > g.N() {
					return false // cycle
				}
				up, ok := c.Upstream(at, xgrp)
				if !ok {
					return false
				}
				if up != n.Delay.Hop(at, core) {
					return false
				}
				at = up
			}
		}
		// And the shared tree delivers exactly once from the core.
		seq := n.SendData(core, xgrp, 100)
		n.Run()
		missing, anomalous := n.CheckDelivery(seq)
		return len(missing) == 0 && len(anomalous) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func membersExcluding(members []topology.NodeID, src topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(members))
	for _, m := range members {
		if m != src {
			out = append(out, m)
		}
	}
	return out
}
