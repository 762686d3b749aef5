package core

import (
	"math"
	"testing"
	"testing/quick"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

const grp packet.GroupID = 1

// railGraph: node 0 is the m-router; a fast expensive rail 0-1-2 and a
// slow cheap rail 0-3-2, plus a stub 2-4 (same shape as the mtree tests).
func railGraph() *topology.Graph {
	g := topology.New(5)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 10)
	g.MustAddEdge(0, 3, 6, 1)
	g.MustAddEdge(3, 2, 6, 1)
	g.MustAddEdge(2, 4, 1, 1)
	return g
}

func newNet(g *topology.Graph, cfg Config) (*netsim.Network, *SCMP) {
	s := New(cfg)
	n := netsim.New(g, s)
	return n, s
}

func TestJoinInstallsBranch(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// Tightest constraint: 4 connects over the fast rail 0-1-2-4.
	for _, tc := range []struct {
		node     topology.NodeID
		upstream topology.NodeID
		down     []topology.NodeID
	}{
		{1, 0, []topology.NodeID{2}},
		{2, 1, []topology.NodeID{4}},
		{4, 2, nil},
	} {
		e, ok := s.Entry(tc.node, grp)
		if !ok || !e.OnTree {
			t.Fatalf("node %d missing entry", tc.node)
		}
		if e.Upstream != tc.upstream {
			t.Fatalf("node %d upstream = %d, want %d", tc.node, e.Upstream, tc.upstream)
		}
		if len(e.Downstream) != len(tc.down) {
			t.Fatalf("node %d downstream = %v, want %v", tc.node, e.Downstream, tc.down)
		}
	}
	e4, _ := s.Entry(4, grp)
	if !e4.HasLocal {
		t.Fatal("member DR should have the local interface marked")
	}
	// JOIN went up (3 links), BRANCH came down (3 links).
	if got := n.Metrics.Crossings(packet.Join); got != 3 {
		t.Fatalf("JOIN crossings = %d, want 3", got)
	}
	if got := n.Metrics.Crossings(packet.Branch); got != 3 {
		t.Fatalf("BRANCH crossings = %d, want 3", got)
	}
	if got := n.Metrics.Crossings(packet.Tree); got != 0 {
		t.Fatalf("TREE crossings = %d, want 0 for a pure graft", got)
	}
}

func TestDataFromMRouter(t *testing.T) {
	n, _ := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.HostJoin(2, grp)
	n.Run()
	seq := n.SendData(0, grp, 1000)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	// Max delay: to member 4 over the fast rail = 1+1+1.
	if n.Metrics.MaxEndToEndDelay() != 3 {
		t.Fatalf("max e2e = %g, want 3", n.Metrics.MaxEndToEndDelay())
	}
}

func TestDataFromOnTreeMemberGoesBothWays(t *testing.T) {
	n, _ := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.HostJoin(1, grp)
	n.Run()
	// Member 4 sends: packet must climb to 1 (upstream direction) and
	// that's it — bi-directional shared tree, no m-router detour.
	seq := n.SendData(4, grp, 1000)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if n.Metrics.Crossings(packet.EncapData) != 0 {
		t.Fatal("on-tree member must not encapsulate")
	}
	// Delay 4->1: 1+1 = 2.
	if n.Metrics.MaxEndToEndDelay() != 2 {
		t.Fatalf("max e2e = %g, want 2", n.Metrics.MaxEndToEndDelay())
	}
}

func TestOffTreeSourceEncapsulates(t *testing.T) {
	n, _ := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// Node 3 is off the tree (tightest constraint uses the fast rail).
	seq := n.SendData(3, grp, 1000)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if n.Metrics.Crossings(packet.EncapData) == 0 {
		t.Fatal("off-tree source should unicast-encapsulate to the m-router")
	}
}

func TestMRouterIsItsOwnDR(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(0, grp)
	n.HostJoin(4, grp)
	n.Run()
	e0, ok := s.Entry(0, grp)
	if !ok || !e0.HasLocal || !e0.OnTree {
		t.Fatalf("m-router entry = %+v", e0)
	}
	seq := n.SendData(4, grp, 500)
	n.Run()
	missing, _ := n.CheckDelivery(seq)
	if len(missing) != 0 {
		t.Fatalf("m-router missed data: %v", missing)
	}
}

func TestLeavePrunesHopByHop(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	n.HostLeave(4, grp)
	n.Run()
	for _, v := range []topology.NodeID{1, 2, 4} {
		if e, ok := s.Entry(v, grp); ok && e.OnTree {
			t.Fatalf("node %d still on tree after leave", v)
		}
	}
	if s.GroupTree(grp).Size() != 1 {
		t.Fatal("m-router tree not pruned")
	}
	if got := n.Metrics.Crossings(packet.Prune); got != 3 {
		t.Fatalf("PRUNE crossings = %d, want 3 (hop-by-hop)", got)
	}
}

func TestLeaveInteriorMemberKeepsBranch(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.HostJoin(2, grp)
	n.Run()
	n.HostLeave(2, grp) // 2 still relays for 4
	n.Run()
	e2, ok := s.Entry(2, grp)
	if !ok || !e2.OnTree {
		t.Fatal("relay 2 must stay on tree")
	}
	if e2.HasLocal {
		t.Fatal("local flag not cleared")
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestRejoinAfterLeave(t *testing.T) {
	n, _ := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	n.HostLeave(4, grp)
	n.Run()
	n.HostJoin(4, grp)
	n.Run()
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestLooseConstraintBuildsCheapTree(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0, Kappa: math.Inf(1)})
	n.HostJoin(2, grp)
	n.Run()
	tr := s.GroupTree(grp)
	if tr.Cost() != 2 {
		t.Fatalf("tree cost = %g, want 2 (cheap rail)", tr.Cost())
	}
	e3, ok := s.Entry(3, grp)
	if !ok || !e3.OnTree {
		t.Fatal("relay 3 not installed")
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

func TestTrafficRecordedAtMRouter(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// Off-tree source: the packet is encapsulated to the m-router and
	// charged on decapsulation.
	n.SendData(3, grp, 1000)
	n.Run()
	pkts, bytes := s.TrafficRecord(grp)
	if pkts != 1 || bytes != 1000 {
		t.Fatalf("traffic = %d pkts / %d bytes, want 1/1000", pkts, bytes)
	}
	// On-tree member sending toward the m-router: charged when the data
	// transits the root.
	n.SendData(4, grp, 500)
	n.Run()
	pkts, bytes = s.TrafficRecord(grp)
	if pkts != 2 || bytes != 1500 {
		t.Fatalf("traffic = %d pkts / %d bytes, want 2/1500", pkts, bytes)
	}
	if p, b := s.TrafficRecord(99); p != 0 || b != 0 {
		t.Fatal("phantom traffic for unknown group")
	}
}

func TestDelayBudgetConfig(t *testing.T) {
	// Budget 5 forces the fast rail (delay 2, cost 20); without it,
	// kappa=inf would pick the cheap rail (delay 12, cost 2).
	n, s := newNet(railGraph(), Config{MRouter: 0, Kappa: math.Inf(1), DelayBudget: 5})
	n.HostJoin(2, grp)
	n.Run()
	tr := s.GroupTree(grp)
	if tr.Cost() != 20 || tr.Delay(2) != 2 {
		t.Fatalf("cost=%g ml(2)=%g, want the fast rail (20, 2)", tr.Cost(), tr.Delay(2))
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

func TestRestructureDistributesTreeAndFlushes(t *testing.T) {
	// Graph engineered so a later join reroutes an earlier member:
	// 0-1 (delay 1, cost 9), 1-2 (1,9): fast rail to 2
	// 0-3 (2,1), 3-2 (2,1): cheap rail to 2
	// 3-4 (10,1): stub member far away, joins second.
	g := topology.New(5)
	g.MustAddEdge(0, 1, 1, 9)
	g.MustAddEdge(1, 2, 1, 9)
	g.MustAddEdge(0, 3, 2, 1)
	g.MustAddEdge(3, 2, 2, 1)
	g.MustAddEdge(3, 4, 10, 1)
	n, s := newNet(g, Config{MRouter: 0})
	// Join 2 first: bound 0 -> P_sl = 0-1-2 (delay 2).
	n.HostJoin(2, grp)
	n.Run()
	// Join 4: ul(4) = 12 > 2, so P_sl(0,4) = 0-3-4 joins; bound 12. No
	// restructure yet. Then leave & rejoin 2: now the cheap graft via 3
	// is feasible (ml = 2+2 = 4 <= 12) and cheaper, re-homing 2.
	n.HostJoin(4, grp)
	n.Run()
	n.HostLeave(2, grp)
	n.Run()
	n.HostJoin(2, grp)
	n.Run()
	e2, ok := s.Entry(2, grp)
	if !ok || !e2.OnTree || e2.Upstream != 3 {
		t.Fatalf("entry(2) = %+v, want upstream 3", e2)
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestDisableBranchAblation(t *testing.T) {
	n := netsim.New(railGraph(), newWithoutBranch(Config{MRouter: 0}))
	n.HostJoin(4, grp)
	n.Run()
	if got := n.Metrics.Crossings(packet.Branch); got != 0 {
		t.Fatalf("BRANCH crossings = %d without the BRANCH optimisation", got)
	}
	if got := n.Metrics.Crossings(packet.Tree); got == 0 {
		t.Fatal("TREE distribution missing")
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

// BenchmarkTreeVsBranch is the ablation for design decision 2 in
// DESIGN.md: protocol overhead with the BRANCH optimisation on vs
// forced whole-tree TREE packets for every join (the paper: "if the
// change is small, using a TREE packet containing the whole tree
// structure is too expensive").
func BenchmarkTreeVsBranch(b *testing.B) {
	g, err := topology.Random(topology.DefaultRandom(50, 3), rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	rng := rng.New(10)
	var joins []netsim.Step // 0.01 s apart from t=0
	for _, v := range rng.Perm(g.N())[:25] {
		if v != 0 {
			joins = append(joins, netsim.Step{At: des.Time(float64(len(joins)) * 0.01), Node: int32(v), Group: 1, Kind: netsim.Join})
		}
	}
	run := func(s *SCMP) (protoUnits float64, protoBytes int64) {
		n := netsim.New(g, s)
		n.InstallScript(joins)
		n.Run()
		return n.Metrics.ProtocolOverhead(), n.Metrics.ProtocolBytes()
	}
	cfg := Config{MRouter: 0, Kappa: 1.5}
	var withBranch, withoutBranch float64
	var withBranchBytes, withoutBranchBytes int64
	for i := 0; i < b.N; i++ {
		withBranch, withBranchBytes = run(New(cfg))
		withoutBranch, withoutBranchBytes = run(newWithoutBranch(cfg))
	}
	b.ReportMetric(withBranch, "branch_proto_units")
	b.ReportMetric(withoutBranch, "treeonly_proto_units")
	b.ReportMetric(float64(withBranchBytes), "branch_proto_bytes")
	b.ReportMetric(float64(withoutBranchBytes), "treeonly_proto_bytes")
}

func TestForeignDataDropped(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// Inject a data packet arriving at on-tree node 2 from off-tree
	// neighbor 3: F-check must drop it.
	before := n.Metrics.Delivered()
	n.SendLink(3, 2, &netsim.Packet{Kind: packet.Data, Group: grp, Src: 3, Size: 10, Created: n.Now()})
	n.Run()
	if n.Metrics.Delivered() != before {
		t.Fatal("data from outside F delivered")
	}
	if n.Metrics.Dropped() == 0 {
		t.Fatal("drop not recorded")
	}
	_ = s
}

func TestOnTreeJoinSendsJoinAndBranchRefresh(t *testing.T) {
	// A DR already on the tree gaining its first local member sends a
	// JOIN (accounting); the tree does not change, but the m-router
	// refreshes the member's path with an idempotent BRANCH so that a
	// DR flushed by a concurrent restructure re-homes.
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp) // puts 2 on the tree as a relay
	n.Run()
	joinBefore := n.Metrics.Crossings(packet.Join)
	treeBefore := n.Metrics.Crossings(packet.Tree)
	e2before, _ := s.Entry(2, grp)
	n.HostJoin(2, grp)
	n.Run()
	if got := n.Metrics.Crossings(packet.Join); got <= joinBefore {
		t.Fatal("accounting JOIN not sent")
	}
	if got := n.Metrics.Crossings(packet.Tree); got != treeBefore {
		t.Fatal("whole-tree redistribution for an on-tree join")
	}
	if !s.GroupTree(grp).IsMember(2) {
		t.Fatal("m-router membership not updated")
	}
	e2after, _ := s.Entry(2, grp)
	if e2after.Upstream != e2before.Upstream || len(e2after.Downstream) != len(e2before.Downstream) {
		t.Fatalf("BRANCH refresh changed the entry: %+v -> %+v", e2before, e2after)
	}
}

func TestMultipleGroupsIsolated(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, 1)
	n.HostJoin(1, 2)
	n.Run()
	seq := n.SendData(0, 2, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if s.GroupTree(1).IsMember(1) || s.GroupTree(2).IsMember(4) {
		t.Fatal("group state leaked across groups")
	}
}

// Property: random churn with quiescence between operations always
// converges to a state where data from random sources reaches every
// member exactly once.
func TestPropertySCMPChurnDelivery(t *testing.T) {
	f := func(seed int64, kappaSel uint8) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(20, 4), rng)
		if err != nil {
			return false
		}
		kappa := []float64{1, 1.5, math.Inf(1)}[int(kappaSel)%3]
		n, s := newNet(g, Config{MRouter: 0, Kappa: kappa})
		members := map[topology.NodeID]bool{}
		for op := 0; op < 25; op++ {
			v := topology.NodeID(rng.Intn(g.N()))
			if members[v] {
				n.HostLeave(v, grp)
				delete(members, v)
			} else {
				n.HostJoin(v, grp)
				members[v] = true
			}
			n.Run() // quiesce
			if err := s.GroupTree(grp).Validate(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			if len(members) == 0 {
				continue
			}
			src := topology.NodeID(rng.Intn(g.N()))
			seq := n.SendData(src, grp, 500)
			n.Run()
			missing, anomalous := n.CheckDelivery(seq)
			if len(missing) != 0 || len(anomalous) != 0 {
				t.Logf("seed %d op %d src %d: missing=%v anomalous=%v members=%v",
					seed, op, src, missing, anomalous, members)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the network-side entries mirror the m-router's tree once
// quiescent: every on-tree tree node has a matching entry whose upstream
// equals the tree parent.
func TestPropertyEntriesMirrorTree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := topology.Random(topology.DefaultRandom(18, 4), rng)
		if err != nil {
			return false
		}
		n, s := newNet(g, Config{MRouter: 0})
		for _, v := range rng.Perm(g.N())[:8] {
			if v == 0 {
				continue
			}
			n.HostJoin(topology.NodeID(v), grp)
			n.Run()
		}
		tr := s.GroupTree(grp)
		for _, v := range tr.Nodes() {
			if v == 0 {
				continue
			}
			e, ok := s.Entry(v, grp)
			if !ok || !e.OnTree {
				return false
			}
			p, _ := tr.Parent(v)
			if e.Upstream != p {
				t.Logf("seed %d: node %d upstream %d, tree parent %d", seed, v, e.Upstream, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSCMPJoinLeaveCycle(b *testing.B) {
	rng := rng.New(1)
	g, err := topology.Random(topology.DefaultRandom(50, 4), rng)
	if err != nil {
		b.Fatal(err)
	}
	n, _ := newNet(g, Config{MRouter: 0})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := topology.NodeID(1 + i%(g.N()-1))
		n.HostJoin(v, grp)
		n.Run()
		n.HostLeave(v, grp)
		n.Run()
	}
}

// TestDataDuplicateFilterPerSource pins the duplicate filter's rule: a
// router forwards a data packet only when its seq is above the highest
// it has forwarded from the same source. Sources are independent, so
// interleaved sources whose seqs arrive out of global order all pass,
// and a source first heard between two others keeps its own count.
func TestDataDuplicateFilterPerSource(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	// Router 2 sits on the tree 0-1-2-4: upstream 1, child 4. A packet
	// from 1 that passes the filter crosses 2->4 once.
	for i, step := range []struct {
		src     topology.NodeID
		seq     uint64
		forward bool
	}{
		{4, 5, true},
		{0, 2, true}, // below source 4's seq: another source's count
		{4, 6, true},
		{0, 3, true},
		{4, 6, false}, // repeated
		{0, 1, false}, // older
		{3, 1, true},  // a new source between 0 and 4
		{3, 1, false},
		{0, 3, false},
		{4, 5, false},
		{0, 4, true},
		{4, 7, true},
		{3, 2, true},
		{1, 9, true}, // and one between 0 and 3
		{1, 9, false},
		{3, 2, false},
		{0, 5, true},
		{4, 8, true},
	} {
		crossings, drops := n.Metrics.Crossings(packet.Data), n.Metrics.DroppedByKind(packet.Data)
		s.HandlePacket(2, &netsim.Packet{Kind: packet.Data, Group: grp, Src: step.src, From: 1, Seq: step.seq, Size: 100})
		n.Run()
		fwd := n.Metrics.Crossings(packet.Data) - crossings
		dropped := n.Metrics.DroppedByKind(packet.Data) - drops
		if step.forward && (fwd != 1 || dropped != 0) || !step.forward && (fwd != 0 || dropped != 1) {
			t.Fatalf("step %d (source %d, seq %d): %d crossings, %d drops; want forwarded=%v",
				i, step.src, step.seq, fwd, dropped, step.forward)
		}
	}
}
