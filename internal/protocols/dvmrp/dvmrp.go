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
package dvmrp

import (
	"sort"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// DefaultPruneLifetime is the prune-state timeout. Real DVMRP defaults
// to around two hours; evaluations (the paper included) use a few
// seconds so that periodic re-flooding shows up within a 30 s run.
const DefaultPruneLifetime des.Time = 10

type pruneKey struct {
	node, src, child topology.NodeID
	group            packet.GroupID
}

type stateKey struct {
	node, src topology.NodeID
	group     packet.GroupID
}

// DVMRP is a protocol instance for one domain.
type DVMRP struct {
	net           *netsim.Network
	PruneLifetime des.Time

	localMembers map[topology.NodeID]map[packet.GroupID]bool
	// prunes[node, src, g, child] = expiry of the prune the child sent us.
	prunes map[pruneKey]des.Time
	// sentPrune marks that (node) pruned itself upstream for (src, g);
	// a later member join must graft.
	sentPrune map[stateKey]bool
}

var _ netsim.Protocol = (*DVMRP)(nil)

// New returns a DVMRP instance. pruneLifetime <= 0 selects the default.
func New(pruneLifetime des.Time) *DVMRP {
	if pruneLifetime <= 0 {
		pruneLifetime = DefaultPruneLifetime
	}
	return &DVMRP{
		PruneLifetime: pruneLifetime,
		localMembers:  make(map[topology.NodeID]map[packet.GroupID]bool),
		prunes:        make(map[pruneKey]des.Time),
		sentPrune:     make(map[stateKey]bool),
	}
}

// Name implements netsim.Protocol.
func (d *DVMRP) Name() string { return "DVMRP" }

// StateEntries returns the number of (source, group) pairs the router
// holds state for — prune timers, sent-prune markers — plus its local
// membership records. DVMRP state is per (source, group): the
// scalability cost the paper charges SPT-based protocols with.
func (d *DVMRP) StateEntries(node topology.NodeID) int {
	pairs := map[stateKey]bool{}
	for k := range d.prunes {
		if k.node == node {
			pairs[stateKey{node, k.src, k.group}] = true
		}
	}
	for k := range d.sentPrune {
		if k.node == node {
			pairs[k] = true
		}
	}
	return len(pairs) + len(d.localMembers[node])
}

// Attach implements netsim.Protocol.
func (d *DVMRP) Attach(n *netsim.Network) { d.net = n }

// HostJoin implements netsim.Protocol: record local membership and graft
// any branch this router had pruned.
func (d *DVMRP) HostJoin(node topology.NodeID, g packet.GroupID) {
	if d.localMembers[node] == nil {
		d.localMembers[node] = make(map[packet.GroupID]bool)
	}
	d.localMembers[node][g] = true
	var srcs []topology.NodeID
	for key := range d.sentPrune {
		if key.node == node && key.group == g {
			srcs = append(srcs, key.src)
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		delete(d.sentPrune, stateKey{node, src, g})
		d.sendGraft(node, src, g)
	}
}

// HostLeave implements netsim.Protocol. Pruning happens lazily on the
// next data packet.
func (d *DVMRP) HostLeave(node topology.NodeID, g packet.GroupID) {
	delete(d.localMembers[node], g)
}

func (d *DVMRP) isMember(node topology.NodeID, g packet.GroupID) bool {
	return d.localMembers[node][g]
}

// rpfNeighbor returns the neighbor a packet from src must arrive on.
func (d *DVMRP) rpfNeighbor(node, src topology.NodeID) topology.NodeID {
	return d.net.Delay.Hop(node, src)
}

// downstreamNeighbors returns the links to flood on: every neighbor
// except the RPF upstream, minus links with live prune state. Classic
// dense-mode flooding forwards on all non-incoming interfaces and lets
// receivers prune back — both non-RPF cross links and memberless
// branches — which is exactly the bandwidth waste the paper charges
// DVMRP with ("adopting DVMRP wastes a large portion of the network
// bandwidth due to flooding").
func (d *DVMRP) downstreamNeighbors(node, src topology.NodeID, g packet.GroupID) []topology.NodeID {
	up := d.rpfNeighbor(node, src)
	now := d.net.Now()
	var out []topology.NodeID
	for _, l := range d.net.G.Neighbors(node) {
		if l.To == up || l.To == src {
			continue
		}
		if exp, ok := d.prunes[pruneKey{node, src, l.To, g}]; ok && exp > now {
			continue
		}
		out = append(out, l.To)
	}
	return out
}

// SendData implements netsim.Protocol: the source floods to every
// unpruned neighbor.
func (d *DVMRP) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	pkt := &netsim.Packet{
		Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size,
		Created: d.net.Now(),
	}
	for _, c := range d.downstreamNeighbors(src, src, g) {
		d.net.SendLink(src, c, pkt)
	}
}

// HandlePacket implements netsim.Protocol.
func (d *DVMRP) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	switch pkt.Kind {
	case packet.Data:
		d.handleData(node, pkt)
	case packet.DvmrpPrune:
		d.prunes[pruneKey{node, pkt.Src, pkt.From, pkt.Group}] = d.net.Now() + d.PruneLifetime
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
		d.net.SendLink(node, pkt.From, &netsim.Packet{
			Kind: packet.DvmrpPrune, Group: pkt.Group, Src: src, Size: packet.ControlSize,
		})
		return
	}
	if d.isMember(node, pkt.Group) {
		d.net.DeliverLocal(node, pkt)
	}
	children := d.downstreamNeighbors(node, src, pkt.Group)
	if len(children) == 0 && !d.isMember(node, pkt.Group) {
		// Leaf with nothing below: prune upstream.
		d.sendPrune(node, src, pkt.Group)
		return
	}
	for _, c := range children {
		d.net.SendLink(node, c, pkt)
	}
}

func (d *DVMRP) sendPrune(node, src topology.NodeID, g packet.GroupID) {
	d.sentPrune[stateKey{node, src, g}] = true
	up := d.rpfNeighbor(node, src)
	if up == -1 {
		return
	}
	d.net.SendLink(node, up, &netsim.Packet{
		Kind: packet.DvmrpPrune, Group: g, Src: src, Size: packet.ControlSize,
	})
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
	delete(d.prunes, pruneKey{node, pkt.Src, pkt.From, pkt.Group})
	// If this router had pruned itself upstream, the graft must continue
	// toward the source.
	key := stateKey{node, pkt.Src, pkt.Group}
	if d.sentPrune[key] {
		delete(d.sentPrune, key)
		d.sendGraft(node, pkt.Src, pkt.Group)
	}
}
