package netsim_test

import (
	"fmt"
	"math"
	"testing"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/topology"
)

// resetProtocols are the protocols TestResetEquivalence runs: each makes
// a fresh instance, and other names the protocol the dirty run before
// the reset uses, never the same one.
var resetProtocols = []struct {
	name  string
	make  func() netsim.Protocol
	other string
}{
	{"SCMP", func() netsim.Protocol { return core.New(core.Config{MRouter: resetCenter, Kappa: 1.5}) }, "CBT"},
	{"SCMP-hardened", func() netsim.Protocol { return hardenedSCMP() }, "DVMRP"},
	{"DVMRP", func() netsim.Protocol { return dvmrp.New(dvmrp.DefaultPruneLifetime) }, "SCMP-hardened"},
	{"MOSPF", func() netsim.Protocol { return mospf.New() }, "SCMP-hardened"},
	{"CBT", func() netsim.Protocol { return cbt.New(resetCenter) }, "MOSPF"},
}

const resetCenter = topology.NodeID(3)

func hardenedSCMP() *core.SCMP {
	return core.New(core.Config{MRouter: resetCenter, Kappa: 1.5, AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2})
}

func resetProtocol(name string) netsim.Protocol {
	for _, p := range resetProtocols {
		if p.name == name {
			return p.make()
		}
	}
	panic("no protocol " + name)
}

// resetScript is a run's timed inputs: members join, one leaves and
// another joins mid-stream, and src sends throughout.
func resetScript(members []topology.NodeID, src topology.NodeID, late topology.NodeID) []netsim.Step {
	var steps []netsim.Step
	for i, m := range members {
		steps = append(steps, netsim.Step{At: des.Time(i) * 0.01, Node: int32(m), Group: 1, Kind: netsim.Join})
	}
	for i := 0; i < 12; i++ {
		steps = append(steps, netsim.Step{At: 1 + des.Time(i)*0.5, Node: int32(src), Arg: packet.DefaultDataSize, Group: 1, Kind: netsim.Send})
	}
	steps = append(steps,
		netsim.Step{At: 3.2, Node: int32(members[0]), Group: 1, Kind: netsim.Leave},
		netsim.Step{At: 4.1, Node: int32(late), Group: 1, Kind: netsim.Join})
	return steps
}

// finish runs n to the horizon, quiesces a protocol with timers that
// re-arm forever, and drains it.
func finish(n *netsim.Network, horizon des.Time) {
	n.RunUntil(horizon)
	if q, ok := n.Proto.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
	n.Run()
}

// resetRun runs the clean script on n, whose protocol is attached, at a
// finite Bandwidth, and returns everything a caller can observe of the run: events fired,
// every Metrics accessor (floats as bits), each seq's CheckDelivery
// and the crossing trace.
func resetRun(n *netsim.Network) []string {
	var out []string
	n.Bandwidth = 5e5 // packets queue, so busy horizons left from an earlier run would show
	n.Trace = func(from, to topology.NodeID, pkt *netsim.Packet) {
		out = append(out, fmt.Sprintf("cross %x %d->%d %s seq=%d size=%d", math.Float64bits(float64(n.Now())), from, to, pkt.Kind, pkt.Seq, pkt.Size))
	}
	sc := n.InstallScript(resetScript([]topology.NodeID{5, 11, 17, 8, 14}, 0, 19))
	finish(n, 12)
	probe := n.SendData(resetCenter, 1, packet.DefaultDataSize)
	n.Run()
	m := n.Metrics
	if m.Delivered() == 0 {
		panic("the clean run delivered nothing")
	}
	f := func(x float64) uint64 { return math.Float64bits(x) }
	out = append(out,
		fmt.Sprintf("events %d sent %v probe %d", n.EventsFired(), sc.Sent(), probe),
		fmt.Sprintf("overhead data %x proto %x bytes %d", f(m.DataOverhead()), f(m.ProtocolOverhead()), m.ProtocolBytes()),
		fmt.Sprintf("delivered %d dropped %d ctrl %d maxdelay %x", m.Delivered(), m.Dropped(), m.DroppedControl(), f(m.MaxEndToEndDelay())),
		fmt.Sprintf("recoveries %d mean %x max %x", m.Recoveries(), f(m.MeanRecovery()), f(m.MaxRecovery())),
		fmt.Sprintf("sheds %d parks %d recovers %d skips %d restructures %d", m.Sheds(), m.Parks(), m.ParkRecovers(), m.RefreshSkips(), m.Restructures()))
	link, load := m.MaxLinkLoad()
	out = append(out, fmt.Sprintf("maxlink %v %d", link, load))
	for k := packet.Kind(0); int(k) < packet.NumKinds; k++ {
		out = append(out, fmt.Sprintf("%s crossings %d drops %d", k, m.Crossings(k), m.DroppedByKind(k)))
	}
	for u := 0; u < n.G.N(); u++ {
		for _, l := range n.G.Neighbors(topology.NodeID(u)) {
			if topology.NodeID(u) < l.To {
				out = append(out, fmt.Sprintf("load %d-%d %d", u, l.To, m.LinkLoad(topology.NodeID(u), l.To)))
			}
		}
	}
	for seq := uint64(1); seq <= probe+1; seq++ {
		missing, anomalous := n.CheckDelivery(seq)
		out = append(out, fmt.Sprintf("seq %d missing %v anomalous %v", seq, missing, anomalous))
	}
	return out
}

// dirtyRun leaves n as a different run would: another protocol, loss
// on both classes for the whole run, a link cut, a finite Bandwidth, a
// Trace and other members and sends.
func dirtyRun(n *netsim.Network) {
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 0.1, DataLoss: 0.1, Seed: 99})
	n.Bandwidth = 2e5
	n.Trace = func(from, to topology.NodeID, pkt *netsim.Packet) {}
	steps := resetScript([]topology.NodeID{7, 2, 12, 16, 9, 1, 18}, 6, 10)
	steps = append(steps, netsim.Step{At: 2.5, Node: 3, Arg: int32(n.G.Neighbors(3)[0].To), Kind: netsim.LinkDown})
	n.InstallScript(steps)
	finish(n, 20)
	if n.EventsFired() == 0 || n.Metrics.DroppedControl()+n.Metrics.Dropped() == 0 {
		panic("dirty run did nothing")
	}
}

// TestResetEquivalence: a network reset after a different run — another
// protocol, loss, a link cut, a finite Bandwidth and a Trace — runs a
// script exactly as a new network does: the same events, the same
// metrics bit for bit, the same delivery records for every seq and the
// same link crossings at the same times.
func TestResetEquivalence(t *testing.T) {
	g := topology.Arpanet().ScaleDelays(1e-3)
	for _, p := range resetProtocols {
		t.Run(p.name, func(t *testing.T) {
			want := resetRun(netsim.New(g, p.make()))

			n := netsim.New(g, resetProtocol(p.other))
			dirtyRun(n)
			n.Reset(p.make())
			if n.Now() != 0 || n.EventsFired() != 0 || n.Trace != nil || n.Bandwidth != 0 || n.Faults() != nil {
				t.Fatalf("after Reset: now %g, fired %d, trace set %v, bandwidth %g, faults %v",
					n.Now(), n.EventsFired(), n.Trace != nil, n.Bandwidth, n.Faults())
			}
			got := resetRun(n)
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("line %d: reset network %q, new network %q", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("reset network observed %d lines, new network %d", len(got), len(want))
			}
		})
	}
}

// TestResetBusyPanics: a network with events still queued cannot be
// reset; the panic is the network's own.
func TestResetBusyPanics(t *testing.T) {
	g := topology.Arpanet().ScaleDelays(1e-3)
	n := netsim.New(g, mospf.New())
	n.InstallScript([]netsim.Step{{At: 1, Node: 4, Group: 1, Kind: netsim.Join}})
	defer func() {
		if r := recover(); r != "netsim: Reset of a network with events pending" {
			t.Fatalf("Reset of a busy network: recovered %v", r)
		}
	}()
	n.Reset(mospf.New())
}
