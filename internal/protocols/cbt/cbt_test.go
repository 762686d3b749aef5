package cbt

import (
	"testing"
	"testing/quick"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

const grp packet.GroupID = 1

func lineGraph(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), 1, 1)
	}
	return g
}

func TestJoinBuildsBranchToCore(t *testing.T) {
	c := New(0)
	n := netsim.New(lineGraph(4), c)
	n.HostJoin(3, grp)
	n.Run()
	// Join travelled 3 hops to the core, ack 3 hops back.
	if got := n.Metrics.Crossings(packet.CbtJoin); got != 3 {
		t.Fatalf("JOIN crossings = %d, want 3", got)
	}
	if got := n.Metrics.Crossings(packet.CbtJoinAck); got != 3 {
		t.Fatalf("ACK crossings = %d, want 3", got)
	}
	for _, v := range []topology.NodeID{1, 2, 3} {
		if !c.onTree(v, grp) {
			t.Fatalf("router %d not on tree", v)
		}
	}
	e := c.entry(3, grp)
	if !e.HasLocal || e.Upstream != 2 {
		t.Fatalf("entry(3) = %+v", e)
	}
}

func TestSecondJoinInterceptedByOnTreeRouter(t *testing.T) {
	// Y shape: core 0 - 1 - 2 (member), and 1 - 3 (joins second).
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(1, 3, 1, 1)
	c := New(0)
	n := netsim.New(g, c)
	n.HostJoin(2, grp)
	n.Run()
	joins := n.Metrics.Crossings(packet.CbtJoin)
	acks := n.Metrics.Crossings(packet.CbtJoinAck)
	n.HostJoin(3, grp)
	n.Run()
	// 3's join is intercepted at on-tree router 1: one join hop, one ack
	// hop — the ack comes from the graft node, not the core.
	if got := n.Metrics.Crossings(packet.CbtJoin) - joins; got != 1 {
		t.Fatalf("second JOIN crossings = %d, want 1 (intercepted)", got)
	}
	if got := n.Metrics.Crossings(packet.CbtJoinAck) - acks; got != 1 {
		t.Fatalf("second ACK crossings = %d, want 1", got)
	}
}

func TestDataBidirectional(t *testing.T) {
	c := New(0)
	n := netsim.New(lineGraph(4), c)
	n.HostJoin(1, grp)
	n.HostJoin(3, grp)
	n.Run()
	// Member 3 sends: data climbs 3->2->1 and stops (1 delivers, nothing
	// above 1 needs it — but CBT forwards to the core too, since 1's
	// upstream is still on the tree).
	seq := n.SendData(3, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if n.Metrics.Crossings(packet.EncapData) != 0 {
		t.Fatal("on-tree member must not encapsulate")
	}
}

func TestOffTreeSourceEncapsulatesToCore(t *testing.T) {
	// Y: core 0 - 1 - 2 (member); source 3 hangs off 0 and is off-tree.
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(0, 3, 1, 1)
	c := New(0)
	n := netsim.New(g, c)
	n.HostJoin(2, grp)
	n.Run()
	seq := n.SendData(3, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if n.Metrics.Crossings(packet.EncapData) != 1 {
		t.Fatalf("EncapData crossings = %d, want 1", n.Metrics.Crossings(packet.EncapData))
	}
}

func TestQuitTearsDownBranch(t *testing.T) {
	c := New(0)
	n := netsim.New(lineGraph(4), c)
	n.HostJoin(3, grp)
	n.Run()
	n.HostLeave(3, grp)
	n.Run()
	for _, v := range []topology.NodeID{1, 2, 3} {
		if c.onTree(v, grp) {
			t.Fatalf("router %d still on tree after quit", v)
		}
	}
	if got := n.Metrics.Crossings(packet.CbtQuit); got != 3 {
		t.Fatalf("QUIT crossings = %d, want 3", got)
	}
}

func TestQuitStopsAtFork(t *testing.T) {
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(1, 3, 1, 1)
	c := New(0)
	n := netsim.New(g, c)
	n.HostJoin(2, grp)
	n.HostJoin(3, grp)
	n.Run()
	n.HostLeave(3, grp)
	n.Run()
	if c.onTree(3, grp) {
		t.Fatal("3 still on tree")
	}
	if !c.onTree(1, grp) || !c.onTree(2, grp) {
		t.Fatal("surviving branch torn down")
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

func TestCoreAsMember(t *testing.T) {
	c := New(0)
	n := netsim.New(lineGraph(3), c)
	n.HostJoin(0, grp)
	n.HostJoin(2, grp)
	n.Run()
	seq := n.SendData(2, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

// Property: random membership with quiescence, then data from random
// sources reaches every member exactly once.
func TestPropertyCBTDelivery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(15, 3), rng)
		if err != nil {
			return false
		}
		n := netsim.New(g, New(0))
		members := map[topology.NodeID]bool{}
		for op := 0; op < 20; op++ {
			v := topology.NodeID(rng.Intn(g.N()))
			if members[v] {
				n.HostLeave(v, grp)
				delete(members, v)
			} else {
				n.HostJoin(v, grp)
				members[v] = true
			}
			n.Run()
			if len(members) == 0 {
				continue
			}
			src := topology.NodeID(rng.Intn(g.N()))
			seq := n.SendData(src, grp, 100)
			n.Run()
			missing, anomalous := n.CheckDelivery(seq)
			if len(missing) != 0 || len(anomalous) != 0 {
				t.Logf("seed %d op %d src %d: missing=%v anomalous=%v", seed, op, src, missing, anomalous)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
