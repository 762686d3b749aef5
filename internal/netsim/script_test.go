package netsim

import (
	"fmt"
	"slices"
	"testing"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// traceProto logs every protocol entry point the network drives, with
// the clock, and floods each data packet to the source's neighbours, so
// deliveries, drops and faults interleave with the inputs.
type traceProto struct {
	net   *Network
	trace []string
}

func (p *traceProto) log(format string, args ...any) {
	p.trace = append(p.trace, fmt.Sprintf("%v ", p.net.Now())+fmt.Sprintf(format, args...))
}

func (p *traceProto) Attach(n *Network) { p.net = n }
func (p *traceProto) HandlePacket(node topology.NodeID, pkt *Packet) {
	p.log("recv %d from %d seq %d", node, pkt.From, pkt.Seq)
}
func (p *traceProto) HostJoin(node topology.NodeID, g packet.GroupID) { p.log("join %d g%d", node, g) }
func (p *traceProto) HostLeave(node topology.NodeID, g packet.GroupID) {
	p.log("leave %d g%d", node, g)
}
func (p *traceProto) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	p.log("send %d g%d seq %d", src, g, seq)
	for _, l := range p.net.G.Neighbors(src) {
		p.net.SendLink(src, l.To, &Packet{Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size})
	}
}
func (p *traceProto) LinkDown(u, v topology.NodeID) { p.log("link-down %d-%d", u, v) }
func (p *traceProto) LinkUp(u, v topology.NodeID)   { p.log("link-up %d-%d", u, v) }
func (p *traceProto) NodeDown(n topology.NodeID)    { p.log("node-down %d", n) }
func (p *traceProto) NodeUp(n topology.NodeID)      { p.log("node-up %d", n) }

// TestScriptOrderMatchesClosures: random joins, leaves, sends and link
// faults at tied and distinct times, installed as two scripts on a
// network that also runs a churn plan, dispatch exactly as the same
// inputs armed one closure timer each, in source order, do: the same trace
// and the same send seqs. Times sit on a quarter-second grid and links
// have unit delay, so inputs tie with each other and with deliveries.
func TestScriptOrderMatchesClosures(t *testing.T) {
	g := topology.New(8)
	for v := 0; v < 8; v++ {
		g.MustAddEdge(topology.NodeID(v), topology.NodeID((v+1)%8), 1, 1)
		if v < 4 {
			g.MustAddEdge(topology.NodeID(v), topology.NodeID(v+4), 1, 1)
		}
	}
	var edges [][2]int32
	for u := 0; u < 8; u++ {
		for _, l := range g.Neighbors(topology.NodeID(u)) {
			edges = append(edges, [2]int32{int32(u), int32(l.To)})
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rng.New(seed)
		steps := make([]Step, 120)
		for i := range steps {
			st := Step{At: des.Time(rnd.Intn(40)) / 4, Node: int32(rnd.Intn(8)), Group: packet.GroupID(1 + rnd.Intn(2))}
			switch st.Kind = StepKind(rnd.Intn(5)); st.Kind { // join, leave, send, link-down or link-up
			case Send:
				st.Arg = int32(100 * rnd.Intn(4))
			case LinkDown, LinkUp:
				e := edges[rnd.Intn(len(edges))]
				st.Node, st.Arg, st.Group = e[0], e[1], 0
			}
			steps[i] = st
		}
		run := func(scripted bool) ([]string, []uint64) {
			p := &traceProto{}
			n := New(g, p)
			n.InstallChurn(ChurnPlan{Group: 1, Members: []topology.NodeID{0, 2, 5, 7}, Rate: 8, Duration: 10, Seed: seed})
			f := n.InstallFaults(FaultPlan{DataLoss: 0.1, Seed: seed})
			var sent []uint64
			var scripts []*Script
			if scripted {
				scripts = []*Script{n.InstallScript(steps[:60]), n.InstallScript(steps[60:])}
			} else {
				for _, st := range steps {
					v := topology.NodeID(st.Node)
					n.Sched.AtTimer(st.At, timerFunc(func() {
						switch st.Kind {
						case Join:
							n.HostJoin(v, st.Group)
						case Leave:
							n.HostLeave(v, st.Group)
						case Send:
							sent = append(sent, n.SendData(v, st.Group, int(st.Arg)))
						default:
							f.apply(st)
						}
					}), 0, 0, 0)
				}
			}
			n.Run()
			for _, sc := range scripts {
				sent = append(sent, sc.Sent()...)
			}
			slices.Sort(sent) // the two scripts' sends interleave; the trace pins their order
			return p.trace, sent
		}
		scripted, scriptSent := run(true)
		closures, closureSent := run(false)
		if len(scripted) < len(steps) || !slices.Equal(scripted, closures) {
			for i := range min(len(scripted), len(closures)) {
				if scripted[i] != closures[i] {
					t.Fatalf("seed %d: dispatch %d is %q scripted, %q as closures", seed, i, scripted[i], closures[i])
				}
			}
			t.Fatalf("seed %d: %d dispatches scripted, %d as closures", seed, len(scripted), len(closures))
		}
		if !slices.Equal(scriptSent, closureSent) {
			t.Fatalf("seed %d: script sent %v, closures %v", seed, scriptSent, closureSent)
		}
	}
}

// timerFunc is a des timer's sink that calls the function: the oracle's
// one closure per step.
type timerFunc func()

func (f timerFunc) SinkEvent(uint8, int32, int32, any, bool) { f() }

// TestScriptHoldsOneEvent: a script is a cursor. A script of k instants
// holds one scheduler event, whatever k is, from its install until its
// last instant runs: one queue entry on one slab slot. Pending counts
// every queue entry and every lane event behind one, so every live slot,
// and the protocol here queues nothing of its own. Each instant is one
// dispatch.
func TestScriptHoldsOneEvent(t *testing.T) {
	for _, k := range []int{1, 2, 10, 1000} {
		n := New(lineGraph(4), &churnRec{})
		var steps []Step
		for i := 0; i < k; i++ {
			at := des.Time(i) / 8
			steps = append(steps, Step{At: at, Node: 1, Group: 1, Kind: Join}, Step{At: at, Node: 2, Group: 1, Kind: Join})
		}
		n.InstallScript(steps)
		for i := 0; i < k; i++ {
			if p := n.Sched.Pending(); p != 1 {
				t.Fatalf("k=%d: %d events pending before instant %d, want 1", k, p, i)
			}
			n.Sched.Step()
		}
		if p, fired := n.Sched.Pending(), n.EventsFired(); p != 0 || fired != uint64(k) {
			t.Fatalf("k=%d: %d pending and %d fired after the script, want 0 and %d", k, p, fired, k)
		}
	}
}
