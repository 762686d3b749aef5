// Scripts: the timed inputs of a run as data. A script is a time-sorted
// slice of typed steps — joins, leaves, sends, link and node faults and
// m-router failovers — queued on one scheduler lane, the way the
// paper's NS-2 runs read a script of timed events. Unlike a closure per
// input, a step can be validated before it is queued, and a run's
// inputs can be inspected, generated (InstallChurn) or rewritten.
package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// StepKind is what a script step does.
type StepKind uint8

const (
	Join     StepKind = iota // Node's subnet gains a member host of Group
	Leave                    // Node's subnet loses its last member host of Group
	Send                     // Node sends one Arg-byte data packet to Group
	LinkDown                 // the link {Node, Arg} is cut
	LinkUp                   // the link {Node, Arg} is restored
	NodeDown                 // router Node crashes
	NodeUp                   // router Node restarts, its member hosts re-reporting
	Failover                 // the protocol's standby takes over (Failover())
)

var stepNames = [...]string{"join", "leave", "send", "link-down", "link-up", "node-down", "node-up", "failover"}

// String returns the kind's name in the scenario DSL.
func (k StepKind) String() string {
	if int(k) < len(stepNames) {
		return stepNames[k]
	}
	return fmt.Sprintf("StepKind(%d)", k)
}

// Step is one timed input: at time At, Kind happens at router Node. Arg
// is a link step's other end or a send's size in bytes; Group is a
// join's, leave's or send's group. Router ids are int32 so a step takes
// 24 bytes.
type Step struct {
	At    des.Time
	Node  int32
	Arg   int32
	Group packet.GroupID
	Kind  StepKind
}

// Script is an installed run of steps in time order.
type Script struct {
	steps []Step
	sent  []uint64
}

// Sent returns the seqs of the data packets the script's send steps
// injected so far, in step order, for CheckDelivery.
func (sc *Script) Sent() []uint64 { return sc.sent }

// failoverer is a protocol that can fail over to a standby m-router,
// and reports whether it has one configured.
type failoverer interface {
	Failover()
	HasStandby() bool
}

// CheckStep reports the first rule step st breaks on the network as it
// is now, nil when it breaks none: its time is finite and not before
// the clock, its routers exist (a link step's endpoints are adjacent),
// a send's size is not negative, a fault step has a fault layer
// (InstallFaults) to act on and a failover step a protocol with
// Failover() and a standby m-router to promote.
func (n *Network) CheckStep(st Step) error {
	switch t := float64(st.At); {
	case math.IsNaN(t) || math.IsInf(t, 0):
		return fmt.Errorf("%s at %g: not a finite time", st.Kind, t)
	case st.At < n.Now():
		return fmt.Errorf("%s at %g is before the clock (%g)", st.Kind, t, n.Now())
	}
	if st.Kind >= LinkDown && st.Kind <= NodeUp && n.faults == nil {
		return fmt.Errorf("%s without a fault layer (InstallFaults)", st.Kind)
	}
	router := st.Node >= 0 && int(st.Node) < n.G.N()
	switch st.Kind {
	case Join, Leave, Send:
		if !router {
			return fmt.Errorf("%s at router %d out of range (%d routers)", st.Kind, st.Node, n.G.N())
		}
		if st.Arg < 0 && st.Kind == Send {
			return fmt.Errorf("send of %d bytes", st.Arg)
		}
	case NodeDown, NodeUp:
		if !router {
			return fmt.Errorf("fault on non-node %d", st.Node)
		}
	case LinkDown, LinkUp:
		if !n.G.HasEdge(topology.NodeID(st.Node), topology.NodeID(st.Arg)) {
			return fmt.Errorf("fault on non-edge {%d,%d}", st.Node, st.Arg)
		}
	case Failover:
		f, ok := n.Proto.(failoverer)
		if !ok {
			return fmt.Errorf("failover needs a protocol with Failover(); %T has none", n.Proto)
		}
		if !f.HasStandby() {
			return fmt.Errorf("failover needs a standby m-router; %T has none configured", n.Proto)
		}
	default:
		return fmt.Errorf("%s is no step kind", st.Kind)
	}
	return nil
}

// InstallScript queues steps, sorted by time with ties in slice order,
// on a drained scheduler lane and returns the installed script; steps
// itself is not retained. Same-instant steps share one lane event and
// run in slice order in it, so the script runs its inputs in the order
// one timer per step, armed now in slice order, would. It panics with
// CheckStep's error on a step that breaks a rule, before queueing any.
func (n *Network) InstallScript(steps []Step) *Script {
	for _, st := range steps {
		if err := n.CheckStep(st); err != nil {
			panic("netsim: " + err.Error())
		}
	}
	sl, buf := n.scriptLane()
	sc := &Script{steps: append(buf, steps...)}
	slices.SortStableFunc(sc.steps, func(a, b Step) int { return cmp.Compare(a.At, b.At) })
	n.queue(sl, sc)
	return sc
}

// scriptLane is one scheduler lane scripts queue on, with the script
// installed on it last, and the spare buffer and run heap InstallChurn
// generates into.
type scriptLane struct {
	lane  des.Lane
	last  *Script
	spare []Step
	runs  []churnRun
}

// scriptLane returns a drained script lane, opening one when every lane
// an earlier install used still has events queued, and the spent steps
// of the script it carried last, emptied for the next one.
func (n *Network) scriptLane() (*scriptLane, []Step) {
	for i := range n.scriptLanes {
		if sl := &n.scriptLanes[i]; n.Sched.LaneEmpty(sl.lane) {
			buf := sl.last.steps[:0]
			sl.last.steps = nil
			return sl, buf
		}
	}
	n.scriptLanes = append(n.scriptLanes, scriptLane{lane: n.Sched.NewLanes(1)})
	return &n.scriptLanes[len(n.scriptLanes)-1], nil
}

// queue puts sc's steps, which are in time order, on lane sl. Steps at
// one instant share a lane event.
func (n *Network) queue(sl *scriptLane, sc *Script) {
	sl.last = sc
	steps := sc.steps
	for i := 0; i < len(steps); {
		j := i + 1
		for j < len(steps) && steps[j].At == steps[i].At { //scmplint:ignore floatcmp — intentionally exact: only bit-identical timestamps may share a scheduler instant; near-ties must stay distinct events in time order
			j++
		}
		n.Sched.LaneSink(sl.lane, steps[i].At, opScript, int32(i), int32(j), sc, false)
		i = j
	}
}

// runSteps fires sc's same-instant steps i..j-1 in order. It indexes
// sc.steps afresh for each, so a step that reused sc's lane (and took
// its storage) could only fail loudly.
func (n *Network) runSteps(sc *Script, i, j int) {
	for k := i; k < j; k++ {
		st := sc.steps[k]
		v := topology.NodeID(st.Node)
		switch st.Kind {
		case Join:
			n.HostJoin(v, st.Group)
		case Leave:
			n.HostLeave(v, st.Group)
		case Send:
			sc.sent = append(sc.sent, n.SendData(v, st.Group, int(st.Arg)))
		case Failover:
			n.Proto.(failoverer).Failover()
		default:
			n.faults.apply(st)
		}
	}
}
