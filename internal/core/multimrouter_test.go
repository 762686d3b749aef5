package core

import (
	"testing"
	"testing/quick"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

func multiNet(t testing.TB, seed int64, homes []topology.NodeID) (*netsim.Network, *SCMP) {
	t.Helper()
	g, err := topology.Random(topology.DefaultRandom(25, 4), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MRouters: homes, Kappa: 1.5})
	n := netsim.New(g, s)
	return n, s
}

func TestMultiMRouterAssignment(t *testing.T) {
	_, s := multiNet(t, 1, []topology.NodeID{3, 7})
	if s.HomeOf(2) != 3 || s.HomeOf(3) != 7 || s.HomeOf(4) != 3 {
		t.Fatalf("homes: g2->%d g3->%d g4->%d", s.HomeOf(2), s.HomeOf(3), s.HomeOf(4))
	}
	if s.MRouter() != 3 {
		t.Fatalf("MRouter = %d, want first home 3", s.MRouter())
	}
}

func TestMultiMRouterTreesRootedAtHomes(t *testing.T) {
	n, s := multiNet(t, 2, []topology.NodeID{3, 7})
	n.HostJoin(10, 2) // home 3
	n.HostJoin(10, 3) // home 7
	n.Run()
	if got := s.GroupTree(2).Root(); got != 3 {
		t.Fatalf("group 2 root = %d, want 3", got)
	}
	if got := s.GroupTree(3).Root(); got != 7 {
		t.Fatalf("group 3 root = %d, want 7", got)
	}
}

func TestMultiMRouterDelivery(t *testing.T) {
	n, s := multiNet(t, 3, []topology.NodeID{3, 7})
	for _, g := range []packet.GroupID{2, 3, 4, 5} {
		n.HostJoin(10, g)
		n.HostJoin(15, g)
		n.HostJoin(20, g)
	}
	n.Run()
	for _, g := range []packet.GroupID{2, 3, 4, 5} {
		if err := s.GroupTree(g).Validate(); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		seq := n.SendData(1, g, 500) // off-tree source: encap to home
		n.Run()
		missing, anomalous := n.CheckDelivery(seq)
		if len(missing) != 0 || len(anomalous) != 0 {
			t.Fatalf("group %d: missing=%v anomalous=%v", g, missing, anomalous)
		}
	}
}

func TestMultiMRouterLoadSpread(t *testing.T) {
	// With 8 groups over 2 m-routers, encapsulated traffic must reach
	// both homes, not concentrate on one (the paper's geographic
	// load-balancing motivation).
	n, s := multiNet(t, 4, []topology.NodeID{3, 7})
	arrivedAt := map[topology.NodeID]int{}
	n.Trace = func(from, to topology.NodeID, pkt *netsim.Packet) {
		if pkt.Kind == packet.EncapData && (to == 3 || to == 7) && pkt.Dst == to {
			arrivedAt[to]++
		}
	}
	for g := packet.GroupID(1); g <= 8; g++ {
		n.HostJoin(10, g)
		n.Run()
		n.SendData(1, g, 500)
		n.Run()
	}
	if arrivedAt[3] == 0 || arrivedAt[7] == 0 {
		t.Fatalf("encap distribution = %v, want both m-routers used", arrivedAt)
	}
	_ = s
}

func TestMultiMRouterConfigGuards(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate m-routers accepted")
			}
		}()
		New(Config{MRouters: []topology.NodeID{3, 3}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("standby with multiple m-routers accepted")
			}
		}()
		New(Config{MRouters: []topology.NodeID{3, 7}, Standby: 5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range m-router accepted")
			}
		}()
		g := topology.New(2)
		g.MustAddEdge(0, 1, 1, 1)
		netsim.New(g, New(Config{MRouters: []topology.NodeID{0, 99}}))
	}()
}

// Property: under churn across many groups on two m-routers, trees stay
// valid and data delivers exactly once, with each group rooted at its
// published home.
func TestPropertyMultiMRouterChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(20, 4), rng)
		if err != nil {
			return false
		}
		homes := []topology.NodeID{1, 2}
		s := New(Config{MRouters: homes, Kappa: 1.5})
		n := netsim.New(g, s)
		members := map[packet.GroupID]map[topology.NodeID]bool{}
		for op := 0; op < 30; op++ {
			gid := packet.GroupID(1 + rng.Intn(4))
			v := topology.NodeID(rng.Intn(g.N()))
			if members[gid] == nil {
				members[gid] = map[topology.NodeID]bool{}
			}
			if members[gid][v] {
				n.HostLeave(v, gid)
				delete(members[gid], v)
			} else {
				n.HostJoin(v, gid)
				members[gid][v] = true
			}
			n.Run()
			tr := s.GroupTree(gid)
			if tr != nil {
				if tr.Root() != s.HomeOf(gid) {
					return false
				}
				if err := tr.Validate(); err != nil {
					return false
				}
			}
			if len(members[gid]) == 0 {
				continue
			}
			seq := n.SendData(topology.NodeID(rng.Intn(g.N())), gid, 300)
			n.Run()
			missing, anomalous := n.CheckDelivery(seq)
			if len(missing) != 0 || len(anomalous) != 0 {
				t.Logf("seed %d op %d gid %d: missing=%v anomalous=%v", seed, op, gid, missing, anomalous)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
