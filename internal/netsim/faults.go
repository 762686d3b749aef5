// Deterministic fault injection: the chaos layer the self-healing SCMP
// control plane is hardened against. Faults executes a FaultPlan's
// per-class packet loss, and the link and node faults of the network's
// scripts (script.go), on the network's own DES clock. Every loss
// decision is a positional draw — a stateless hash of (plan seed,
// directed link, per-link crossing index) via rng.Hash01 — rather than
// a pull from one shared sequential stream. With a sequential stream
// each draw depends on how many draws happened before it anywhere in
// the run, so one extra packet on one link would reshuffle the losses
// on every other link; positional draws make a link's loss pattern
// independent of draw order elsewhere, so an identically-seeded run
// replays the exact same faults — packet for packet — regardless of
// host, parallelism or wall clock.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// FaultPlan parameterises a fault-injection run. The zero value injects
// nothing (but still installs the machinery, so a script's fault steps
// have a layer to act on).
type FaultPlan struct {
	// ControlLoss and DataLoss are per-link-crossing drop probabilities
	// for control-class and data-class packets respectively. Zero
	// disables loss for that class without consuming any randomness, so
	// a lossless faulty run stays byte-identical to a fault-free one.
	ControlLoss float64
	DataLoss    float64
	// LossUntil, when positive, confines random loss to simulated times
	// strictly before it — the "last fault" boundary recovery is
	// measured from. Zero means loss applies for the whole run.
	LossUntil des.Time
	// Seed keys the positional loss draws (rng.Hash01). Plans with equal
	// seeds lose the same crossings of the same links.
	Seed int64
}

// FaultListener is the optional Protocol extension through which a
// protocol observes topology faults. The routing store (Network.Delay,
// .Cost) is always reconverged before the listener runs, so a protocol
// reacting to LinkDown can immediately route around the dead link.
type FaultListener interface {
	LinkDown(u, v topology.NodeID)
	LinkUp(u, v topology.NodeID)
	NodeDown(n topology.NodeID)
	NodeUp(n topology.NodeID)
}

// Faults injects a FaultPlan into a Network: random per-class packet
// loss, and the link and node failures of the network's scripts, all on
// the DES clock.
type Faults struct {
	net       *Network
	plan      FaultPlan
	cut       []bool // by CSR arc: its link is scheduled down (both arcs agree)
	downNodes map[topology.NodeID]bool
	listener  FaultListener // the protocol, when it listens

	// down is the routing mask the down-sets imply, by CSR arc id:
	// down[a] == LinkIsDown(from(a), to(a)). apply is its only writer
	// and ends by invalidating the routing store (which aliases it), so
	// no route is computed against a mask newer than its invalidation.
	down []bool

	// lossN counts each directed link's admitted crossings for the
	// positional loss draws, by CSR arc id.
	lossN []uint64
}

// Validate reports the first rule the plan breaks, nil when it breaks
// none: loss probabilities lie in [0, 1] and LossUntil is finite and
// non-negative.
func (p FaultPlan) Validate() error {
	switch {
	case !(p.ControlLoss >= 0 && p.ControlLoss <= 1):
		return fmt.Errorf("fault plan ControlLoss %g is not in [0, 1]", p.ControlLoss)
	case !(p.DataLoss >= 0 && p.DataLoss <= 1):
		return fmt.Errorf("fault plan DataLoss %g is not in [0, 1]", p.DataLoss)
	case !(p.LossUntil >= 0) || math.IsInf(float64(p.LossUntil), 1):
		return fmt.Errorf("fault plan LossUntil %g is not finite and >= 0", p.LossUntil)
	}
	return nil
}

// InstallFaults attaches a fault plan to the network. At most one plan
// per network; installing twice panics, and so does a plan that breaks
// a Validate rule.
func (n *Network) InstallFaults(plan FaultPlan) *Faults {
	if n.faults != nil {
		panic("netsim: faults installed twice")
	}
	if err := plan.Validate(); err != nil {
		panic("netsim: " + err.Error())
	}
	f := &Faults{
		net:       n,
		plan:      plan,
		cut:       make([]bool, n.csr.NumArcs()),
		downNodes: make(map[topology.NodeID]bool),
		down:      make([]bool, n.csr.NumArcs()),
		lossN:     make([]uint64, n.csr.NumArcs()),
	}
	f.listener, _ = n.Proto.(FaultListener)
	n.faults = f
	return f
}

// Faults returns the installed fault layer, nil when none.
func (n *Network) Faults() *Faults { return n.faults }

// ScheduleLinkDown cuts the link {u,v} at simulated time at: a
// one-step script (InstallScript).
func (f *Faults) ScheduleLinkDown(at des.Time, u, v topology.NodeID) {
	f.net.InstallScript([]Step{{At: at, Node: int32(u), Arg: int32(v), Kind: LinkDown}})
}

// ScheduleLinkUp restores the link {u,v} at simulated time at: a
// one-step script (InstallScript).
func (f *Faults) ScheduleLinkUp(at des.Time, u, v topology.NodeID) {
	f.net.InstallScript([]Step{{At: at, Node: int32(u), Arg: int32(v), Kind: LinkUp}})
}

// LinkIsDown reports whether {u,v} is unusable: scheduled down, or
// touching a crashed node.
func (f *Faults) LinkIsDown(u, v topology.NodeID) bool {
	a := f.net.Arc(u, v)
	return a >= 0 && f.cut[a] || f.downNodes[u] || f.downNodes[v]
}

// NodeIsDown reports whether router n is crashed.
func (f *Faults) NodeIsDown(n topology.NodeID) bool { return f.downNodes[n] }

// lossRate returns the plan's drop probability for kind's class.
func (f *Faults) lossRate(kind packet.Kind) float64 {
	if packet.ClassOf(kind) == packet.ClassProtocol {
		return f.plan.ControlLoss
	}
	return f.plan.DataLoss
}

// lossPairKey packs a directed link into the positional draw key.
func lossPairKey(from, to topology.NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// loseArc draws the loss decision for the n-th admitted crossing of the
// directed link behind CSR arc a, offered now. The draw is positional —
// hash(seed, link, n) — so it depends only on the link and how many
// draws that link has seen, never on draw order elsewhere in the run.
// The counter stays untouched when the class's rate is zero or the loss
// window has closed, so such runs replay identically to configurations
// without loss.
func (f *Faults) loseArc(a int32, from, to topology.NodeID, kind packet.Kind) bool {
	rate := f.lossRate(kind)
	if rate <= 0 {
		return false
	}
	if f.plan.LossUntil > 0 && f.net.Sched.Now() >= f.plan.LossUntil {
		return false
	}
	nth := f.lossN[a]
	f.lossN[a] = nth + 1
	return rng.Hash01(f.plan.Seed, lossPairKey(from, to), nth) < rate
}

// apply executes one fault step: update the down sets and the arc
// mask, reconverge the unicast substrate, then notify the protocol.
// NodeUp additionally re-reports the router's ground-truth
// memberships (the modelled IGMP query round after a DR reboot).
func (f *Faults) apply(st Step) {
	u, v := topology.NodeID(st.Node), topology.NodeID(st.Arg)
	switch st.Kind {
	case LinkDown, LinkUp:
		cut := st.Kind == LinkDown
		f.cut[f.net.Arc(u, v)], f.cut[f.net.Arc(v, u)] = cut, cut
		f.remask(u, v)
	case NodeDown, NodeUp:
		if st.Kind == NodeDown {
			f.downNodes[u] = true
		} else {
			delete(f.downNodes, u)
		}
		lo, hi := f.net.csr.Row(u)
		for a := lo; a < hi; a++ {
			f.remask(u, f.net.csr.ArcDst(a))
		}
	}
	f.net.RecomputeRoutes()
	if l := f.listener; l != nil {
		switch st.Kind {
		case LinkDown:
			l.LinkDown(u, v)
		case LinkUp:
			l.LinkUp(u, v)
		case NodeDown:
			l.NodeDown(u)
		case NodeUp:
			l.NodeUp(u)
		}
	}
	if st.Kind == NodeUp {
		f.rereport(u)
	}
}

// remask re-derives both arcs of edge {u,v} from the down sets, so
// overlapping faults compose: a link cut while an endpoint is crashed
// stays masked when the node returns, and the other way round.
func (f *Faults) remask(u, v topology.NodeID) {
	d := f.LinkIsDown(u, v)
	f.down[f.net.Arc(u, v)] = d
	f.down[f.net.Arc(v, u)] = d
}

// rereport replays the restarted router's ground-truth memberships into
// the protocol — the modelled IGMP query round after a DR reboot: the
// member hosts never left the subnet, so the first query re-learns them
// and the DR re-joins their groups.
func (f *Faults) rereport(node topology.NodeID) {
	gids := make([]packet.GroupID, 0, len(f.net.members))
	for g := range f.net.members {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, g := range gids {
		if f.net.IsMember(node, g) {
			f.net.Proto.HostJoin(node, g)
		}
	}
}
