package core

import (
	"testing"

	destime "scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// meshGraph: m-router 0 in a redundant mesh so every single link or
// non-member router failure leaves an alternate route.
//
//	0 - 1 - 2        0-1 delay 1; the 0-5-4 side is slower, so members
//	|       |        2/3 home over the 0-1-2 rail first.
//	5       3
//	 \     /
//	  4 --+
func meshGraph() *topology.Graph {
	g := topology.New(6)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	g.MustAddEdge(3, 4, 2, 2)
	g.MustAddEdge(4, 5, 2, 2)
	g.MustAddEdge(5, 0, 2, 2)
	return g
}

// probe sends one data packet from the m-router and reports the members
// that failed to receive it.
func probe(t *testing.T, n *netsim.Network, src topology.NodeID) []topology.NodeID {
	t.Helper()
	seq := n.SendData(src, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(anomalous) != 0 {
		t.Fatalf("anomalous deliveries: %v", anomalous)
	}
	return missing
}

func TestLinkCutLocalRepairHeals(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 5, RefreshInterval: 50})
	f := n.InstallFaults(netsim.FaultPlan{})
	n.HostJoin(2, grp)
	n.HostJoin(3, grp)
	// A bare Run would spin the armed refresh timer forever: drain up
	// to a deadline, quiesce, then drain the leftovers.
	n.RunUntil(50)
	s.Quiesce()
	n.Run()
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("pre-fault probe missing %v", missing)
	}

	// Cut the rail the tree runs over: 1-2. Router 2 is orphaned, sends
	// REJOIN, the m-router re-grafts 2 and 3 over the 0-5-4-3 side.
	f.ScheduleLinkDown(100, 1, 2)
	n.RunUntil(200)
	s.Quiesce()
	n.Run()

	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("post-repair probe missing %v", missing)
	}
	if n.Metrics.Recoveries() == 0 {
		t.Fatal("no recovery time recorded")
	}
	if n.Metrics.MeanRecovery() <= 0 {
		t.Fatalf("mean recovery = %g", n.Metrics.MeanRecovery())
	}
	// The orphan adopted a live upstream.
	e2, _ := s.Entry(2, grp)
	if !e2.OnTree || e2.Upstream == 1 {
		t.Fatalf("router 2 entry after repair: %+v", e2)
	}
}

func TestLinkCutWithoutRepairStrands(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, DisableRepair: true})
	f := n.InstallFaults(netsim.FaultPlan{})
	n.HostJoin(2, grp)
	n.HostJoin(3, grp)
	n.Run()

	f.ScheduleLinkDown(100, 1, 2)
	n.RunUntil(200)
	s.Quiesce()
	n.Run()

	missing := probe(t, n, 0)
	if len(missing) == 0 {
		t.Fatal("repair disabled, yet no member was stranded")
	}
}

// TestLazyRoutesRebaseWithoutRepair pins DisableRepair's meaning: the
// ablation turns off the repair reaction, not the m-router's view of
// the topology. Its DCDM reads the network's routing store, which the
// cut reconverges, so the delay bound must follow the post-fault
// distances through a leave and a join — in the invariants build every
// mutation also cross-checks the incremental bound against a rescan.
func TestLazyRoutesRebaseWithoutRepair(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, DisableRepair: true})
	f := n.InstallFaults(netsim.FaultPlan{})
	n.HostJoin(2, grp)
	n.HostJoin(3, grp)
	n.Run()
	d := s.GroupEngine(grp)
	checkBound := func(when string, want float64) {
		t.Helper()
		rescan := 0.0
		for _, m := range d.Tree().Members() {
			rescan = max(rescan, d.UnicastDelay(m))
		}
		if got := d.Bound(); got != want || got != rescan {
			t.Fatalf("%s: bound %g, want %g (member rescan %g)", when, got, want, rescan)
		}
	}
	checkBound("before the cut", 3) // ul(3) over 0-1-2-3

	// Cutting 1-2 leaves only the slow side: ul(2) = 7, ul(3) = 6.
	f.ScheduleLinkDown(100, 1, 2)
	n.RunUntil(200)
	checkBound("after the cut", 7)
	n.HostLeave(3, grp)
	n.RunUntil(300)
	checkBound("after 3 left", 7)
	n.HostJoin(4, grp)
	n.RunUntil(400)
	if !d.Tree().IsMember(4) {
		t.Fatal("member 4 was not grafted")
	}
	checkBound("after 4 joined", 7)
}

func TestReliableJoinSurvivesTotalLossWindow(t *testing.T) {
	// Every control packet sent before t=30 is lost. The JOIN at t=0
	// dies; with AckTimeout 10 the retransmissions at 10 and 30 (2x
	// backoff) straddle the window, so the one at t=30 succeeds.
	n, _ := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 10, RetryCap: 4})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, LossUntil: 30, Seed: 7})
	n.HostJoin(2, grp)
	n.Run()
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("member stranded despite retransmissions: %v", missing)
	}
	if n.Metrics.DroppedByKind(packet.Join) == 0 {
		t.Fatal("expected the first JOIN to be counted as dropped")
	}
}

func TestUnreliableJoinDiesInLossWindow(t *testing.T) {
	// Same fault plan, reliability off: the single JOIN is lost and the
	// member never reaches the tree.
	n, _ := newNet(meshGraph(), Config{MRouter: 0})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, LossUntil: 30, Seed: 7})
	n.HostJoin(2, grp)
	n.Run()
	if missing := probe(t, n, 0); len(missing) != 1 || missing[0] != 2 {
		t.Fatalf("missing = %v, want [2]", missing)
	}
}

func TestSoftStateRefreshRepairsDivergedRouter(t *testing.T) {
	// Sabotage one router's entry out-of-band; the refresh TREE wave
	// must reconverge it within one interval.
	n, s := newNet(meshGraph(), Config{MRouter: 0, RefreshInterval: 40})
	n.InstallFaults(netsim.FaultPlan{}) // enables drop-not-panic paths
	n.HostJoin(2, grp)
	n.RunUntil(5) // branch installed; refresh armed for ~t=41
	e := s.entry(2, grp)
	e.OnTree = false
	e.Upstream = netsim.NoUpstream
	seq := n.SendData(0, grp, 100)
	n.RunUntil(20)
	if missing, _ := n.CheckDelivery(seq); len(missing) != 1 {
		t.Fatalf("sabotage did not strand the member: %v", missing)
	}
	n.RunUntil(50) // one refresh tick fires
	s.Quiesce()
	n.Run()
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("refresh did not reconverge: missing %v", missing)
	}
}

func TestRefreshStopsWhenGroupEmpties(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, RefreshInterval: 10})
	n.HostJoin(2, grp)
	n.RunUntil(15)
	n.HostLeave(2, grp)
	// With the last member gone the refresh timer must let the
	// scheduler drain on its own (no Quiesce needed).
	n.Run()
	if got := len(s.GroupTree(grp).Members()); got != 0 {
		t.Fatalf("members after leave = %d", got)
	}
}

func TestNodeCrashAndRestartRecovers(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 5, RefreshInterval: 50})
	n.InstallFaults(netsim.FaultPlan{})
	n.HostJoin(2, grp)
	n.HostJoin(4, grp)
	n.RunUntil(50)
	s.Quiesce()
	n.Run()

	// Member router 2's own crash: while down it cannot receive (it is
	// still a ground-truth member, so the probe reports it missing) —
	// and member 4, whose branch ran 0-1-2-3-4, must be re-homed.
	n.InstallScript([]netsim.Step{{At: 100, Node: 2, Kind: netsim.NodeDown}})
	n.RunUntil(150)
	s.Quiesce()
	n.Run()
	missing := probe(t, n, 0)
	if len(missing) != 1 || missing[0] != 2 {
		t.Fatalf("while node 2 is down, missing = %v, want [2]", missing)
	}

	// Restart: ground truth re-reports its membership, the DR re-joins,
	// and the next probe is clean again.
	n.InstallScript([]netsim.Step{{At: 300, Node: 2, Kind: netsim.NodeUp}})
	n.RunUntil(400)
	s.Quiesce()
	n.Run()
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("post-restart probe missing %v", missing)
	}
}

func TestChaosLossHealsWithFullStack(t *testing.T) {
	// The acceptance scenario: 5% uniform control-plane loss while
	// members join, full reliability + refresh stack on. After the loss
	// window closes and one refresh interval passes, delivery must be
	// exactly-once to every member. The identically-seeded run without
	// the reliability stack strands at least one member.
	build := func(hardened bool, seed int64) (*netsim.Network, *SCMP) {
		cfg := Config{MRouter: 0}
		if hardened {
			cfg.AckTimeout = 5
			cfg.RetryCap = 8
			cfg.RefreshInterval = 50
		} else {
			cfg.DisableRepair = true
		}
		n, s := newNet(meshGraph(), cfg)
		n.InstallFaults(netsim.FaultPlan{ControlLoss: 0.05, DataLoss: 0.05, LossUntil: 200, Seed: seed})
		for i, m := range []topology.NodeID{1, 2, 3, 4, 5} {
			m := m
			n.Sched.At(destime.Time(i*10), func() { n.HostJoin(m, grp) })
		}
		n.RunUntil(250) // loss window (200) + one refresh interval (50)
		s.Quiesce()
		n.Run()
		return n, s
	}
	// Deterministically find a seed whose loss draws hit at least one
	// bare JOIN: ~40% of seeds do, so the scan is short and the test does
	// not depend on the exact shape of the random stream.
	seed := int64(-1)
	for cand := int64(1); cand <= 64; cand++ {
		n, _ := build(false, cand)
		if missing := probe(t, n, 0); len(missing) != 0 {
			seed = cand
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in 1..64 strands an unhardened member — loss plumbing broken?")
	}
	n, _ := build(true, seed)
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("hardened run with seed %d stranded %v", seed, missing)
	}
}
