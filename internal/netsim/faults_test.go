package netsim

import (
	"math"
	"strings"
	"testing"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// ringGraph builds a 4-node ring so every link cut leaves an alternate
// route: 0-1-2-3-0, delay 2, cost 5 per link.
func ringGraph() *topology.Graph {
	g := topology.New(4)
	g.MustAddEdge(0, 1, 2, 5)
	g.MustAddEdge(1, 2, 2, 5)
	g.MustAddEdge(2, 3, 2, 5)
	g.MustAddEdge(3, 0, 2, 5)
	return g
}

// faultRecorder logs fault notifications in arrival order.
type faultRecorder struct{ events []Step }

func (r *faultRecorder) LinkDown(u, v topology.NodeID) {
	r.events = append(r.events, Step{Kind: LinkDown, Node: int32(u), Arg: int32(v)})
}
func (r *faultRecorder) LinkUp(u, v topology.NodeID) {
	r.events = append(r.events, Step{Kind: LinkUp, Node: int32(u), Arg: int32(v)})
}
func (r *faultRecorder) NodeDown(n topology.NodeID) {
	r.events = append(r.events, Step{Kind: NodeDown, Node: int32(n)})
}
func (r *faultRecorder) NodeUp(n topology.NodeID) {
	r.events = append(r.events, Step{Kind: NodeUp, Node: int32(n)})
}

// withFaults installs an empty fault plan on n and a script of steps.
func withFaults(n *Network, steps ...Step) *Faults {
	f := n.InstallFaults(FaultPlan{})
	n.InstallScript(steps)
	return f
}

// listeningEcho is an echoProto that also listens for faults.
type listeningEcho struct {
	echoProto
	faultRecorder
}

func TestLinkDownDropsAndReroutes(t *testing.T) {
	p := &listeningEcho{}
	n := New(ringGraph(), p)
	f := n.InstallFaults(FaultPlan{})
	rec := &p.faultRecorder

	if n.Delay.Hop(0, 1) != 1 {
		t.Fatalf("pre-fault next hop 0->1 = %d", n.Delay.Hop(0, 1))
	}
	f.ScheduleLinkDown(10, 0, 1)
	n.RunUntil(11)

	if len(rec.events) != 1 || rec.events[0].Kind != LinkDown {
		t.Fatalf("listener events = %+v", rec.events)
	}
	// The unicast substrate routed around the cut: 0->1 now goes the
	// long way via 3.
	if n.Delay.Hop(0, 1) != 3 {
		t.Fatalf("post-fault next hop 0->1 = %d, want 3", n.Delay.Hop(0, 1))
	}
	// A direct SendLink on the dead link is refused and counted.
	n.SendLink(0, 1, &Packet{Kind: packet.Join, Size: 64})
	n.Run()
	if len(p.got) != 0 {
		t.Fatalf("delivered %d packets over a dead link", len(p.got))
	}
	if n.Metrics.DroppedControl() != 1 || n.Metrics.DroppedByKind(packet.Join) != 1 {
		t.Fatalf("control drops = %d", n.Metrics.DroppedControl())
	}
	// Restoring the link restores the direct route.
	f.ScheduleLinkUp(20, 0, 1)
	n.Run()
	if n.Delay.Hop(0, 1) != 1 {
		t.Fatalf("post-repair next hop 0->1 = %d, want 1", n.Delay.Hop(0, 1))
	}
	if len(rec.events) != 2 || rec.events[1].Kind != LinkUp {
		t.Fatalf("listener events = %+v", rec.events)
	}
}

func TestInFlightPacketLostToLinkCut(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	withFaults(n, Step{At: 1, Kind: LinkDown, Node: 0, Arg: 1})
	// Sent at t=0, arrives at t=2 — but the link dies at t=1 underneath
	// it, so the packet is lost at arrival time.
	n.SendLink(0, 1, &Packet{Kind: packet.Tree, Size: 64})
	n.Run()
	if len(p.got) != 0 {
		t.Fatal("packet survived a mid-flight link cut")
	}
	if n.Metrics.DroppedByKind(packet.Tree) != 1 {
		t.Fatalf("TREE drops = %d, want 1", n.Metrics.DroppedByKind(packet.Tree))
	}
}

// A packet whose receiver crashes while it is on the wire is dropped at
// arrival and counted.
func TestInFlightPacketLostToReceiverCrash(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	withFaults(n, Step{At: 1, Kind: NodeDown, Node: 1})
	n.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 100}) // arrives at t=2
	n.Run()
	if len(p.got) != 0 {
		t.Fatal("packet delivered to a router that crashed while it was in flight")
	}
	if n.Metrics.Dropped() != 1 {
		t.Fatalf("data drops = %d, want 1", n.Metrics.Dropped())
	}
}

// A unicast relay admitted onto its second arc (1->2, at t=2) dies there
// when that arc is cut before it arrives (t=4): the intermediate router
// does not get it back and the destination never sees it.
func TestInFlightUnicastLostToRelayArcCut(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	withFaults(n, Step{At: 3, Kind: LinkDown, Node: 1, Arg: 2})
	n.SendUnicast(0, &Packet{Kind: packet.Rejoin, Dst: 2, Size: 64})
	n.Run()
	if len(p.got) != 0 {
		t.Fatalf("delivered %d packets across an arc cut mid-flight", len(p.got))
	}
	if n.Metrics.DroppedByKind(packet.Rejoin) != 1 {
		t.Fatalf("REJOIN drops = %d, want 1", n.Metrics.DroppedByKind(packet.Rejoin))
	}
	if got := n.Metrics.LinkLoad(0, 1) + n.Metrics.LinkLoad(1, 2); got != 2 {
		t.Fatalf("crossings = %d, want 2 (both arcs were entered)", got)
	}
}

// Arrival judges the link as it is at arrival: one cut and restored
// while a packet is on it still delivers the packet.
func TestInFlightPacketSurvivesCutAndRestore(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	withFaults(n, Step{At: 0.5, Kind: LinkDown, Node: 0, Arg: 1}, Step{At: 1.5, Kind: LinkUp, Node: 0, Arg: 1})
	n.SendLink(0, 1, &Packet{Kind: packet.Tree, Size: 64}) // arrives at t=2
	n.Run()
	if len(p.got) != 1 || p.got[0].node != 1 {
		t.Fatalf("got %d packets, want the one sent before the cut", len(p.got))
	}
	if n.Metrics.DroppedByKind(packet.Tree) != 0 {
		t.Fatalf("TREE drops = %d, want 0", n.Metrics.DroppedByKind(packet.Tree))
	}
}

func TestNodeCrashKillsAdjacentLinks(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	f := withFaults(n, Step{At: 5, Kind: NodeDown, Node: 1})
	n.RunUntil(6)
	if !f.NodeIsDown(1) || !f.LinkIsDown(0, 1) || !f.LinkIsDown(1, 2) {
		t.Fatal("crashed node's links must read as down")
	}
	n.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 100})
	n.Run()
	if len(p.got) != 0 {
		t.Fatal("delivered to a crashed node")
	}
	if n.Metrics.Dropped() != 1 {
		t.Fatalf("data drops = %d, want 1", n.Metrics.Dropped())
	}
}

func TestUnicastPartitionDropsInsteadOfPanicking(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	withFaults(n, Step{At: 0, Kind: LinkDown, Node: 1, Arg: 2})
	n.RunUntil(1)
	n.SendUnicast(0, &Packet{Kind: packet.Rejoin, Dst: 2, Size: 64})
	n.Run()
	if len(p.got) != 0 {
		t.Fatal("delivered across a partition")
	}
	if n.Metrics.DroppedByKind(packet.Rejoin) != 1 {
		t.Fatalf("REJOIN drops = %d, want 1", n.Metrics.DroppedByKind(packet.Rejoin))
	}
}

func TestNodeUpRereportsGroundTruthMembers(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	n.HostJoin(1, 9)
	n.HostJoin(1, 7)
	n.HostJoin(2, 7)
	p.joined = nil

	withFaults(n, Step{At: 5, Kind: NodeDown, Node: 1}, Step{At: 10, Kind: NodeUp, Node: 1})
	n.Run()
	// Exactly node 1's memberships are re-reported, in ascending group
	// order (7 then 9) — node 2 never crashed.
	if len(p.joined) != 2 || p.joined[0] != 1 || p.joined[1] != 1 {
		t.Fatalf("re-reported joins = %v, want [1 1]", p.joined)
	}
}

func TestPerClassLoss(t *testing.T) {
	// ControlLoss=1 kills every control packet but no data; DataLoss=1
	// the reverse.
	run := func(ctl, data float64) (*echoProto, *Network) {
		p := &echoProto{}
		n := New(lineGraph(2), p)
		n.InstallFaults(FaultPlan{ControlLoss: ctl, DataLoss: data, Seed: 1})
		n.SendLink(0, 1, &Packet{Kind: packet.Join, Size: 64})
		n.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 100})
		n.Run()
		return p, n
	}
	p, n := run(1, 0)
	if len(p.got) != 1 || p.got[0].pkt.Kind != packet.Data {
		t.Fatalf("with ControlLoss=1: got %+v", p.got)
	}
	if n.Metrics.DroppedControl() != 1 || n.Metrics.Dropped() != 0 {
		t.Fatalf("drops ctl=%d data=%d", n.Metrics.DroppedControl(), n.Metrics.Dropped())
	}
	p, n = run(0, 1)
	if len(p.got) != 1 || p.got[0].pkt.Kind != packet.Join {
		t.Fatalf("with DataLoss=1: got %+v", p.got)
	}
	if n.Metrics.Dropped() != 1 || n.Metrics.DroppedControl() != 0 {
		t.Fatalf("drops ctl=%d data=%d", n.Metrics.DroppedControl(), n.Metrics.Dropped())
	}
}

func TestLossDeterministicAcrossRuns(t *testing.T) {
	run := func(seed int64) (delivered, dropped int64) {
		p := &echoProto{}
		n := New(lineGraph(2), p)
		n.InstallFaults(FaultPlan{ControlLoss: 0.4, Seed: seed})
		for i := 0; i < 200; i++ {
			n.SendLink(0, 1, &Packet{Kind: packet.Join, Size: 64})
		}
		n.Run()
		return int64(len(p.got)), n.Metrics.DroppedControl()
	}
	d1, x1 := run(42)
	d2, x2 := run(42)
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("40%% loss should both drop and deliver: delivered=%d dropped=%d", d1, x1)
	}
	d3, _ := run(43)
	if d3 == d1 {
		t.Log("different seeds delivered the same count (possible, just unlikely)")
	}
}

func TestLossWindowCloses(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	n.InstallFaults(FaultPlan{ControlLoss: 1, LossUntil: 10, Seed: 1})
	n.Sched.At(20, func() {
		n.SendLink(0, 1, &Packet{Kind: packet.Join, Size: 64})
	})
	n.Run()
	// At t=20 the loss window has closed: the packet survives.
	if len(p.got) != 1 {
		t.Fatalf("post-window packet dropped (got %d deliveries)", len(p.got))
	}
}

func TestZeroLossPlanIsTransparent(t *testing.T) {
	// Installing an empty plan must not perturb behaviour at all.
	run := func(install bool) des.Time {
		p := &echoProto{}
		n := New(lineGraph(4), p)
		if install {
			n.InstallFaults(FaultPlan{Seed: 99})
		}
		n.SendUnicast(0, &Packet{Kind: packet.Join, Dst: 3, Size: 64})
		n.Run()
		if len(p.got) != 1 {
			t.Fatalf("got %d deliveries", len(p.got))
		}
		return n.Sched.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("empty fault plan changed timing: %v vs %v", a, b)
	}
}

// TestFaultPlanValidate: a plan with a loss probability outside [0, 1]
// or a non-finite LossUntil is an error, and InstallFaults panics with
// it. Each of these used to install.
func TestFaultPlanValidate(t *testing.T) {
	if err := (FaultPlan{ControlLoss: 1, DataLoss: 0.5, LossUntil: 3}).Validate(); err != nil {
		t.Fatalf("valid plan: %v", err)
	}
	for name, tc := range map[string]struct {
		plan FaultPlan
		want string
	}{
		"control loss 7":       {FaultPlan{ControlLoss: 7}, "ControlLoss 7 is not in [0, 1]"},
		"negative data loss":   {FaultPlan{DataLoss: -0.1}, "DataLoss -0.1 is not in [0, 1]"},
		"NaN data loss":        {FaultPlan{DataLoss: math.NaN()}, "DataLoss NaN is not in [0, 1]"},
		"infinite loss window": {FaultPlan{ControlLoss: 0.1, LossUntil: des.Time(math.Inf(1))}, "LossUntil +Inf"},
		"NaN loss window":      {FaultPlan{ControlLoss: 0.1, LossUntil: des.Time(math.NaN())}, "LossUntil NaN"},
		"negative loss window": {FaultPlan{LossUntil: -1}, "LossUntil -1"},
	} {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", name, err, tc.want)
			continue
		}
		func() {
			defer func() {
				if got, want := recover(), "netsim: "+err.Error(); got != want {
					t.Errorf("%s: InstallFaults panic %v, want %q", name, got, want)
				}
			}()
			New(lineGraph(2), &echoProto{}).InstallFaults(tc.plan)
		}()
	}
}

func TestInstallFaultsTwicePanics(t *testing.T) {
	n := New(lineGraph(2), &echoProto{})
	n.InstallFaults(FaultPlan{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.InstallFaults(FaultPlan{})
}

// TestFaultOnNonEdgePanics pins validation at the call site: a link
// step on a non-edge and a node step on an out-of-range router are
// rejected when offered — by InstallScript, and by ScheduleLinkDown/Up
// for the link steps — not when they fire (the arc mask would turn them
// into bad indexes by then). A rejected script queues none of its steps.
func TestFaultOnNonEdgePanics(t *testing.T) {
	const at = 1
	cases := []struct {
		st   Step
		want string
	}{
		{Step{At: at, Kind: LinkDown, Node: 0, Arg: 2}, "netsim: fault on non-edge {0,2}"},
		{Step{At: at, Kind: LinkUp, Node: 2, Arg: 0}, "netsim: fault on non-edge {2,0}"},
		{Step{At: at, Kind: LinkDown, Node: 1, Arg: 7}, "netsim: fault on non-edge {1,7}"},
		{Step{At: at, Kind: NodeDown, Node: 3}, "netsim: fault on non-node 3"},
		{Step{At: at, Kind: NodeUp, Node: -1}, "netsim: fault on non-node -1"},
	}
	panicOf := func(fn func()) (msg any) {
		defer func() { msg = recover() }()
		fn()
		return nil
	}
	for _, c := range cases {
		n := New(lineGraph(3), &echoProto{})
		f := n.InstallFaults(FaultPlan{})
		good := Step{At: at, Kind: LinkDown, Node: 0, Arg: 1}
		if got := panicOf(func() { n.InstallScript([]Step{good, c.st}) }); got != c.want {
			t.Errorf("InstallScript(%v %d,%d): panic %v, want %q", c.st.Kind, c.st.Node, c.st.Arg, got, c.want)
		}
		u, v := topology.NodeID(c.st.Node), topology.NodeID(c.st.Arg)
		switch c.st.Kind {
		case LinkDown:
			if got := panicOf(func() { f.ScheduleLinkDown(at, u, v) }); got != c.want {
				t.Errorf("ScheduleLinkDown(%d,%d): panic %v, want %q", u, v, got, c.want)
			}
		case LinkUp:
			if got := panicOf(func() { f.ScheduleLinkUp(at, u, v) }); got != c.want {
				t.Errorf("ScheduleLinkUp(%d,%d): panic %v, want %q", u, v, got, c.want)
			}
		}
		if n.Sched.Pending() != 0 {
			t.Errorf("%v %d,%d: rejected step was queued anyway", c.st.Kind, c.st.Node, c.st.Arg)
		}
	}
}

// TestFaultKindString: the fault steps, like every step kind, are named
// as the scenario DSL spells them.
func TestFaultKindString(t *testing.T) {
	want := []string{"join", "leave", "send", "link-down", "link-up", "node-down", "node-up", "failover"}
	for k, name := range want {
		if got := StepKind(k).String(); got != name {
			t.Errorf("StepKind(%d) = %q, want %q", k, got, name)
		}
	}
	if StepKind(99).String() != "StepKind(99)" {
		t.Fatal("unknown step kind name wrong")
	}
}
