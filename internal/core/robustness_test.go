package core

import (
	"testing"
	"testing/quick"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

func TestStaleTreePacketIgnored(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	e2, _ := s.Entry(2, grp)
	// Replay an old-version TREE packet at node 2 claiming a bogus
	// subtree; the entry must not change.
	bogus := packet.EncodeSubtree(packet.Subtree{Children: []packet.Child{{Addr: 3}}})
	s.HandlePacket(2, &netsim.Packet{
		Kind: packet.Tree, Group: grp, From: 1, Version: 0, Payload: bogus,
	})
	n.Run()
	after, _ := s.Entry(2, grp)
	if len(after.Downstream) != len(e2.Downstream) || after.Upstream != e2.Upstream {
		t.Fatalf("stale TREE mutated entry: %+v -> %+v", e2, after)
	}
}

func TestStaleBranchIgnored(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	before, _ := s.Entry(2, grp)
	payload := packet.EncodeBranch([]topology.NodeID{2, 3})
	s.HandlePacket(2, &netsim.Packet{
		Kind: packet.Branch, Group: grp, From: 1, Version: 0, Payload: payload,
	})
	n.Run()
	after, _ := s.Entry(2, grp)
	if len(after.Downstream) != len(before.Downstream) {
		t.Fatalf("stale BRANCH mutated entry: %+v -> %+v", before, after)
	}
}

func TestCorruptPayloadsDropped(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	before, _ := s.Entry(2, grp)
	for _, kind := range []packet.Kind{packet.Tree, packet.Branch} {
		s.HandlePacket(2, &netsim.Packet{
			Kind: kind, Group: grp, From: 1, Version: 99,
			Payload: []byte{0xde, 0xad},
		})
	}
	n.Run()
	after, _ := s.Entry(2, grp)
	if after.Upstream != before.Upstream || len(after.Downstream) != len(before.Downstream) {
		t.Fatal("corrupt payload mutated entry")
	}
}

func TestBranchForWrongNodeIgnored(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// BRANCH whose head is not this node must be ignored.
	payload := packet.EncodeBranch([]topology.NodeID{3, 2})
	before, _ := s.Entry(2, grp)
	s.HandlePacket(2, &netsim.Packet{
		Kind: packet.Branch, Group: grp, From: 1, Version: 99, Payload: payload,
	})
	after, _ := s.Entry(2, grp)
	if len(after.Downstream) != len(before.Downstream) {
		t.Fatal("misaddressed BRANCH accepted")
	}
}

func TestFlushWithLocalMembersRejoins(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// Forge a FLUSH from 4's upstream with a current version: the DR
	// must tear down and immediately re-join.
	e4, _ := s.Entry(4, grp)
	joinsBefore := n.Metrics.Crossings(packet.Join)
	s.HandlePacket(4, &netsim.Packet{
		Kind: packet.Flush, Group: grp, From: e4.Upstream, Version: 1 << 40,
	})
	n.Run()
	if got := n.Metrics.Crossings(packet.Join); got <= joinsBefore {
		t.Fatal("flushed member DR did not re-join")
	}
	after, _ := s.Entry(4, grp)
	if !after.OnTree || !after.HasLocal {
		t.Fatalf("DR not restored after flush: %+v", after)
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

func TestFlushFromNonUpstreamIgnored(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	before, _ := s.Entry(2, grp)
	s.HandlePacket(2, &netsim.Packet{
		Kind: packet.Flush, Group: grp, From: 3 /* not 2's upstream */, Version: 1 << 40,
	})
	after, _ := s.Entry(2, grp)
	if after.OnTree != before.OnTree {
		t.Fatal("flush from non-upstream accepted")
	}
}

func TestLeaveUnknownGroupHarmless(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostLeave(4, 77) // never joined
	n.Run()
	if _, ok := s.Entry(4, 77); ok {
		t.Fatal("phantom entry created")
	}
}

func TestPruneAtOffTreeRouterIgnored(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	s.HandlePacket(3, &netsim.Packet{Kind: packet.Prune, Group: grp, From: 2})
	n.Run()
	if _, ok := s.Entry(3, grp); ok {
		if e, _ := s.Entry(3, grp); e.OnTree {
			t.Fatal("prune created tree state")
		}
	}
}

// Property: feeding the protocol random garbage packets at random nodes
// never panics and never breaks an established tree's delivery.
func TestPropertyGarbageResilience(t *testing.T) {
	f := func(seed int64, raw []byte) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(12, 3), rng)
		if err != nil {
			return false
		}
		n, s := newNet(g, Config{MRouter: 0})
		n.HostJoin(5, grp)
		n.HostJoin(9, grp)
		n.Run()
		kinds := []packet.Kind{packet.Tree, packet.Branch, packet.Prune, packet.Flush, packet.Join, packet.Leave, packet.Data, packet.EncapData, packet.Replicate}
		for i := 0; i < 20; i++ {
			node := topology.NodeID(rng.Intn(g.N()))
			from := topology.NodeID(rng.Intn(g.N()))
			s.HandlePacket(node, &netsim.Packet{
				Kind:    kinds[rng.Intn(len(kinds))],
				Group:   grp,
				Src:     from,
				From:    from,
				Version: uint64(rng.Intn(3)),
				Payload: raw,
			})
		}
		n.Run()
		// The m-router's authoritative tree still validates; a fresh
		// distribution (triggered by a new join) restores the network.
		if err := s.GroupTree(grp).Validate(); err != nil {
			return false
		}
		n.HostJoin(7, grp)
		n.Run()
		seq := n.SendData(0, grp, 100)
		n.Run()
		_, anomalous := n.CheckDelivery(seq)
		// Deliveries may be disturbed by forged PRUNEs (an attacker in
		// the domain can always cut a branch), but duplicates must never
		// appear and nothing may panic.
		return len(anomalous) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
