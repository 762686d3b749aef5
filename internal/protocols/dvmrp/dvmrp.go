// Package dvmrp implements the Distance-Vector Multicast Routing
// Protocol baseline: flood-and-prune source-based shortest-path trees.
//
// Data packets are flooded from the source as a truncated broadcast
// filtered by reverse-path forwarding (RPF). Routers with no members and
// no unpruned downstream send PRUNE upstream; prune state expires after
// PruneLifetime, after which data floods the domain again — the behaviour
// behind DVMRP's dominant data overhead in the paper's Fig. 8 ("DVMRP
// floods the packets frequently when it starts to construct the tree or
// the timer in a leaf router is expired"). GRAFT messages un-prune a
// branch when a pruned router gains a member.
//
// State is dense: per group a local-member bitset, and per (source,
// group) a prune expiry per CSR arc and a sent-prune bitset, created on
// first use. Flooding a packet walks the router's CSR row and allocates
// nothing.
package dvmrp

import (
	"cmp"
	"math"
	"slices"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// DefaultPruneLifetime is the prune-state timeout. Real DVMRP defaults
// to around two hours; evaluations (the paper included) use a few
// seconds so that periodic re-flooding shows up within a 30 s run.
const DefaultPruneLifetime des.Time = 10

// noPrune marks an arc without prune state. It is below every
// simulated time, so a flood never skips the arc.
var noPrune = des.Time(math.Inf(-1))

// DVMRP is a protocol instance for one domain.
type DVMRP struct {
	net           *netsim.Network
	csr           *topology.CSR
	PruneLifetime des.Time

	// groups holds the state of every group any router has heard of,
	// ascending by id.
	groups []*group
	// down is downstreamArcs' scratch.
	down []int32
}

// group is one group's state at every router.
type group struct {
	id    packet.GroupID
	local netsim.NodeSet // routers with local member hosts
	src   []*source      // src[s] is the (s, group) state; nil until first needed
}

// source is every router's state for one (source, group) pair.
type source struct {
	// prune[a] is the expiry of the prune that the far end of CSR arc a
	// (u -> v) sent u, or noPrune. An expired prune is still an entry
	// until a graft deletes it.
	prune []des.Time
	// sentPrune holds the routers that pruned themselves upstream; a
	// later member join must graft.
	sentPrune netsim.NodeSet
}

var _ netsim.Protocol = (*DVMRP)(nil)

// New returns a DVMRP instance. pruneLifetime <= 0 selects the default.
func New(pruneLifetime des.Time) *DVMRP {
	if pruneLifetime <= 0 {
		pruneLifetime = DefaultPruneLifetime
	}
	return &DVMRP{PruneLifetime: pruneLifetime}
}

// StateEntries returns the number of (source, group) pairs the router
// holds state for — prune timers, sent-prune markers — plus its local
// membership records. DVMRP state is per (source, group): the
// scalability cost the paper charges SPT-based protocols with.
func (d *DVMRP) StateEntries(node topology.NodeID) int {
	lo, hi := d.csr.Row(node)
	count := 0
	for _, gs := range d.groups {
		if gs.local.Has(node) {
			count++
		}
		for _, s := range gs.src {
			if s != nil && (s.sentPrune.Has(node) || slices.ContainsFunc(s.prune[lo:hi], isPrune)) {
				count++
			}
		}
	}
	return count
}

func isPrune(exp des.Time) bool { return exp != noPrune }

// Attach implements netsim.Protocol.
func (d *DVMRP) Attach(n *netsim.Network) {
	d.net = n
	d.csr = n.G.CSR()
}

func byID(gs *group, g packet.GroupID) int { return cmp.Compare(gs.id, g) }

// group returns g's state, creating it the first time any router hears
// of g.
func (d *DVMRP) group(g packet.GroupID) *group {
	i, ok := slices.BinarySearchFunc(d.groups, g, byID)
	if !ok {
		n := d.csr.N()
		// Allocates once per group, on the first packet or membership change that names it.
		d.groups = slices.Insert(d.groups, i, &group{id: g, local: netsim.NewNodeSet(n), src: make([]*source, n)})
	}
	return d.groups[i]
}

// pair returns the (src, group) state, creating it on first use; nil
// when src is not a router.
func (d *DVMRP) pair(gs *group, src topology.NodeID) *source {
	if src < 0 || int(src) >= len(gs.src) {
		return nil
	}
	s := gs.src[src]
	if s == nil {
		// Allocates once per (source, group), on its first packet.
		s = &source{prune: make([]des.Time, d.csr.NumArcs()), sentPrune: netsim.NewNodeSet(d.csr.N())}
		for a := range s.prune {
			s.prune[a] = noPrune
		}
		gs.src[src] = s
	}
	return s
}

// HostJoin implements netsim.Protocol: record local membership and graft
// any branch this router had pruned, sources in ascending order.
func (d *DVMRP) HostJoin(node topology.NodeID, g packet.GroupID) {
	gs := d.group(g)
	gs.local.Set(node)
	for src, s := range gs.src {
		if s != nil && s.sentPrune.Has(node) {
			s.sentPrune.Clear(node)
			d.sendGraft(node, topology.NodeID(src), g)
		}
	}
}

// HostLeave implements netsim.Protocol. Pruning happens lazily on the
// next data packet.
func (d *DVMRP) HostLeave(node topology.NodeID, g packet.GroupID) {
	d.group(g).local.Clear(node)
}

// rpfNeighbor returns the neighbor a packet from src must arrive on.
func (d *DVMRP) rpfNeighbor(node, src topology.NodeID) topology.NodeID {
	return d.net.Delay.Hop(node, src)
}

// downstreamArcs returns the arcs to flood on: every link to a neighbor
// except the RPF upstream, minus links with live prune state. Classic
// dense-mode flooding forwards on all non-incoming interfaces and lets
// receivers prune back — both non-RPF cross links and memberless
// branches — which is exactly the bandwidth waste the paper charges
// DVMRP with ("adopting DVMRP wastes a large portion of the network
// bandwidth due to flooding"). The slice is scratch, valid until the
// next call.
func (d *DVMRP) downstreamArcs(node, src topology.NodeID, s *source) []int32 {
	up := d.rpfNeighbor(node, src)
	now := d.net.Now()
	d.down = d.down[:0]
	lo, hi := d.csr.Row(node)
	for a := lo; a < hi; a++ {
		to := d.csr.ArcDst(a)
		if to == up || to == src || s.prune[a] > now {
			continue
		}
		d.down = append(d.down, a)
	}
	return d.down
}

// SendData implements netsim.Protocol: the source floods to every
// unpruned neighbor.
func (d *DVMRP) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	pkt := &netsim.Packet{
		Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size,
		Created: d.net.Now(),
	}
	for _, a := range d.downstreamArcs(src, src, d.pair(d.group(g), src)) {
		d.net.SendArc(src, a, pkt)
	}
}

// HandlePacket implements netsim.Protocol.
func (d *DVMRP) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	switch pkt.Kind {
	case packet.Data:
		d.handleData(node, pkt)
	case packet.DvmrpPrune:
		if s := d.pair(d.group(pkt.Group), pkt.Src); s != nil {
			if a := d.net.Arc(node, pkt.From); a >= 0 {
				s.prune[a] = d.net.Now() + d.PruneLifetime
			}
		}
	case packet.DvmrpGraft:
		d.handleGraft(node, pkt)
	}
}

func (d *DVMRP) handleData(node topology.NodeID, pkt *netsim.Packet) {
	src := pkt.Src
	if node == src {
		d.net.DropData(node)
		return
	}
	if pkt.From != d.rpfNeighbor(node, src) {
		// Not on the reverse shortest path: the flood copy dies here,
		// and the useless cross link is pruned so later packets skip it.
		d.net.DropData(node)
		prune := netsim.Packet{Kind: packet.DvmrpPrune, Group: pkt.Group, Src: src, Size: packet.ControlSize}
		d.net.SendLink(node, pkt.From, &prune)
		return
	}
	gs := d.group(pkt.Group)
	member := gs.local.Has(node)
	if member {
		d.net.DeliverLocal(node, pkt)
	}
	s := d.pair(gs, src)
	children := d.downstreamArcs(node, src, s)
	if len(children) == 0 && !member {
		// Leaf with nothing below: prune upstream.
		d.sendPrune(node, src, s, pkt.Group)
		return
	}
	for _, a := range children {
		d.net.SendArc(node, a, pkt)
	}
}

func (d *DVMRP) sendPrune(node, src topology.NodeID, s *source, g packet.GroupID) {
	s.sentPrune.Set(node)
	up := d.rpfNeighbor(node, src)
	if up == -1 {
		return
	}
	prune := netsim.Packet{Kind: packet.DvmrpPrune, Group: g, Src: src, Size: packet.ControlSize}
	d.net.SendLink(node, up, &prune)
}

func (d *DVMRP) sendGraft(node, src topology.NodeID, g packet.GroupID) {
	up := d.rpfNeighbor(node, src)
	if up == -1 {
		return
	}
	d.net.SendLink(node, up, &netsim.Packet{
		Kind: packet.DvmrpGraft, Group: g, Src: src, Size: packet.ControlSize,
	})
}

func (d *DVMRP) handleGraft(node topology.NodeID, pkt *netsim.Packet) {
	s := d.pair(d.group(pkt.Group), pkt.Src)
	if s == nil {
		return
	}
	if a := d.net.Arc(node, pkt.From); a >= 0 {
		s.prune[a] = noPrune
	}
	// If this router had pruned itself upstream, the graft must continue
	// toward the source.
	if s.sentPrune.Has(node) {
		s.sentPrune.Clear(node)
		d.sendGraft(node, pkt.Src, pkt.Group)
	}
}
