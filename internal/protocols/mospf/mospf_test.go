package mospf

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

func TestLSAFloodsWholeDomain(t *testing.T) {
	g := lineGraph(5) // 4 links
	n := netsim.New(g, New())
	n.HostJoin(2, grp)
	n.Run()
	// Flooding crosses every link at least once, in both directions for
	// interior links; for this line: origin 2 sends to 1 and 3, each
	// forwards outward and back-floods duplicates are suppressed at
	// nodes, not links.
	got := n.Metrics.Crossings(packet.GroupLSA)
	if got < 4 {
		t.Fatalf("LSA crossings = %d, want at least one per link", got)
	}
}

func TestLSAConvergesAllViews(t *testing.T) {
	g := lineGraph(4)
	m := New()
	n := netsim.New(g, m)
	n.HostJoin(3, grp)
	n.Run()
	for v := 0; v < g.N(); v++ {
		if !m.group(grp).knows(topology.NodeID(v), 3) {
			t.Fatalf("router %d did not learn membership of 3", v)
		}
	}
	n.HostLeave(3, grp)
	n.Run()
	for v := 0; v < g.N(); v++ {
		if m.group(grp).knows(topology.NodeID(v), 3) {
			t.Fatalf("router %d did not learn leave of 3", v)
		}
	}
}

func TestEveryMembershipChangeFloods(t *testing.T) {
	g := lineGraph(4)
	n := netsim.New(g, New())
	n.HostJoin(1, grp)
	n.Run()
	first := n.Metrics.Crossings(packet.GroupLSA)
	n.HostJoin(3, grp)
	n.Run()
	second := n.Metrics.Crossings(packet.GroupLSA) - first
	if second < first/2 {
		t.Fatalf("second join flooded only %d crossings vs %d: flood suppressed?", second, first)
	}
}

func TestDataFollowsSourceTree(t *testing.T) {
	g := lineGraph(5)
	n := netsim.New(g, New())
	n.HostJoin(4, grp)
	n.Run()
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	// Data is scoped to the member path: exactly 4 crossings.
	if got := n.Metrics.Crossings(packet.Data); got != 4 {
		t.Fatalf("data crossings = %d, want 4", got)
	}
}

func TestDataPrunedToMemberSubtrees(t *testing.T) {
	// Star: 0 center with arms 1, 2, 3; member only on arm 2.
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(0, 2, 1, 1)
	g.MustAddEdge(0, 3, 1, 1)
	n := netsim.New(g, New())
	n.HostJoin(2, grp)
	n.Run()
	n.SendData(0, grp, 100)
	n.Run()
	if got := n.Metrics.Crossings(packet.Data); got != 1 {
		t.Fatalf("data crossings = %d, want 1 (member arm only)", got)
	}
}

func TestNoMembersNoData(t *testing.T) {
	g := lineGraph(3)
	n := netsim.New(g, New())
	n.SendData(0, grp, 100)
	n.Run()
	if got := n.Metrics.Crossings(packet.Data); got != 0 {
		t.Fatalf("data crossings = %d, want 0", got)
	}
}

func TestMemberSourceDeliversToOthers(t *testing.T) {
	g := lineGraph(3)
	n := netsim.New(g, New())
	n.HostJoin(0, grp)
	n.HostJoin(2, grp)
	n.Run()
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

// Property: after quiescent LSA convergence, data from any source
// reaches every member exactly once.
func TestPropertyMOSPFDelivery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(15, 3), rng)
		if err != nil {
			return false
		}
		n := netsim.New(g, New())
		for _, v := range rng.Perm(g.N())[:5] {
			n.HostJoin(topology.NodeID(v), grp)
		}
		n.Run()
		for i := 0; i < 3; i++ {
			src := topology.NodeID(rng.Intn(g.N()))
			seq := n.SendData(src, grp, 100)
			n.Run()
			missing, anomalous := n.CheckDelivery(seq)
			if len(missing) != 0 || len(anomalous) != 0 {
				t.Logf("seed %d src %d: missing=%v anomalous=%v", seed, src, missing, anomalous)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyRoutesSourceTreeAfterLinkDown pins that a source tree is the
// network's current one: on a square whose fast side 0-1-2 loses its
// {1,2} link, data from 0 must reach member 2 over the slow side 0-3-2
// instead of dying on the dead link the pre-fault tree used.
func TestLazyRoutesSourceTreeAfterLinkDown(t *testing.T) {
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(0, 3, 2, 2)
	g.MustAddEdge(3, 2, 2, 2)
	n := netsim.New(g, New())
	f := n.InstallFaults(netsim.FaultPlan{})
	n.HostJoin(2, grp)
	n.Run()
	send := func(when string) {
		t.Helper()
		seq := n.SendData(0, grp, 100)
		n.Run()
		if missing, anomalous := n.CheckDelivery(seq); len(missing) != 0 || len(anomalous) != 0 {
			t.Fatalf("%s: missing=%v anomalous=%v", when, missing, anomalous)
		}
	}
	send("before the cut")
	f.ScheduleLinkDown(n.Now(), 1, 2)
	n.Run()
	send("after the cut")
	if got := n.Metrics.Dropped(); got != 0 {
		t.Fatalf("%d data packets dropped: forwarded onto the dead link", got)
	}
}

// lsa builds an LSA copy as router from would flood it.
func lsa(origin topology.NodeID, seq uint64, from topology.NodeID, payload []byte) *netsim.Packet {
	return &netsim.Packet{Kind: packet.GroupLSA, Group: grp, Src: origin, Seq: seq, From: from, Payload: payload, Size: packet.ControlSize}
}

// TestLateOlderLSAStillApplied pins the exact-set rule: a router applies
// every LSA instance the first time it sees it, in arrival order, so an
// older LSA that arrives after a newer one still overwrites the view and
// is re-flooded. (OSPF's newest-instance rule would discard it.)
func TestLateOlderLSAStillApplied(t *testing.T) {
	m := New()
	n := netsim.New(lineGraph(4), m)
	n.HostJoin(0, grp)  // origin 0, seq 1: joined
	n.HostLeave(0, grp) // seq 2: left
	m.HandlePacket(2, lsa(0, 2, 1, lsaPayload(0, false)))
	if m.group(grp).knows(2, 0) {
		t.Fatal("router 2 lists member 0 after the leave LSA")
	}
	before := n.Metrics.Crossings(packet.GroupLSA)
	m.HandlePacket(2, lsa(0, 1, 1, lsaPayload(0, true)))
	if !m.group(grp).knows(2, 0) {
		t.Fatal("the late older join LSA was not applied at router 2")
	}
	if got := n.Metrics.Crossings(packet.GroupLSA) - before; got != 1 {
		t.Fatalf("the late older LSA crossed %d links from router 2, want 1 (re-flooded to 3)", got)
	}
	n.Run() // the originals reach 2 as duplicates
	if !m.group(grp).knows(2, 0) || m.group(grp).knows(1, 0) {
		t.Fatal("duplicates changed a view: router 2 must keep member 0, router 1 must not list it")
	}
}

// TestMalformedLSADropped: an LSA naming an unknown origin or sequence
// number, or carrying a bad payload, is dropped without a panic: no
// view changes and nothing is re-flooded. Each case lands on its own
// router, so an accepted sequence number does not mask the next case.
func TestMalformedLSADropped(t *testing.T) {
	m := New()
	n := netsim.New(lineGraph(12), m)
	n.HostJoin(0, grp) // origin 0 has originated seq 1 only
	ok := lsaPayload(0, true)
	for i, tc := range []struct {
		name string
		pkt  *netsim.Packet
	}{
		{"origin beyond the routers", lsa(99, 1, 0, ok)},
		{"negative origin", lsa(-1, 1, 0, ok)},
		{"seq 0", lsa(0, 0, 0, ok)},
		{"seq never originated", lsa(0, 2, 0, ok)},
		{"origin that never flooded", lsa(5, 1, 0, ok)},
		{"empty payload", lsa(0, 1, 0, nil)},
		{"short payload", lsa(0, 1, 0, ok[:4])},
		{"long payload", lsa(0, 1, 0, append(lsaPayload(0, true), 0))},
		{"member beyond the routers", lsa(0, 1, 0, lsaPayload(99, true))},
	} {
		node := topology.NodeID(i + 2)
		tc.pkt.From = node - 1
		before := n.Metrics.Crossings(packet.GroupLSA)
		m.HandlePacket(node, tc.pkt)
		if got := m.StateEntries(node); got != 0 {
			t.Errorf("%s: router %d holds %d state entries, want 0", tc.name, node, got)
		}
		if got := n.Metrics.Crossings(packet.GroupLSA) - before; got != 0 {
			t.Errorf("%s: re-flooded over %d links", tc.name, got)
		}
	}
}

// TestLSASetReleasedOnceEveryRouterHasIt: an LSA's accepted set is held
// only until the last router accepts it, so a fault-free run ends
// holding none; an LSA a crashed router never accepted keeps its set.
func TestLSASetReleasedOnceEveryRouterHasIt(t *testing.T) {
	rng := rng.New(4)
	wg, err := topology.Waxman(topology.DefaultWaxman(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	m := New()
	n := netsim.New(g, m)
	n.InstallFaults(netsim.FaultPlan{})
	lsas := 0
	for k := 0; k < 30; k++ {
		v := topology.NodeID(rng.Intn(g.N()))
		n.HostJoin(v, grp)
		n.Run()
		n.HostLeave(v, grp)
		n.Run()
		lsas += 2
	}
	held := 0
	for _, sets := range m.seen {
		for _, set := range sets {
			if set != nil {
				held++
			}
		}
	}
	if held != 0 {
		t.Fatalf("%d of %d LSAs still hold their accepted set after every router accepted them", held, lsas)
	}

	crashed, origin := topology.NodeID(0), topology.NodeID(1)
	n.InstallScript([]netsim.Step{{At: n.Now(), Node: int32(crashed), Kind: netsim.NodeDown}})
	n.Run()
	n.HostJoin(origin, grp)
	n.Run()
	set := m.seen[origin][len(m.seen[origin])-1]
	if set == nil || set.Has(crashed) {
		t.Fatalf("the LSA crashed router %d never accepted released its set or lists it: %v", crashed, set)
	}
}
