// Package mospf implements the Multicast Extensions to OSPF baseline.
//
// Every router holds the full link-state topology (given: the domain
// runs a link-state unicast protocol) plus a group-membership database
// fed by flooded group-membership LSAs: every time a subnet gains its
// first member or loses its last one, the designated router floods a
// GROUP-LSA through the whole domain — the behaviour behind MOSPF's
// steep protocol-overhead curve in the paper's Fig. 8 ("whenever a group
// member wants to join or leave the group, the DR will flood a
// group-membership-lsa packet throughout the domain").
//
// Data packets follow the source-rooted shortest-delay tree that every
// router computes identically from its link-state database, forwarded
// only toward subtrees containing members. That database is the
// network's: links are symmetric, so the tree is the row rooted at the
// source in the network's delay table. A fault retires the row, so it
// is read per packet, never kept.
package mospf

import (
	"encoding/binary"
	"slices"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

type lsaKey struct {
	origin topology.NodeID
	seq    uint64
}

// MOSPF is a protocol instance for one domain.
type MOSPF struct {
	net *netsim.Network

	// view[node] is node's local copy of the membership database:
	// group -> member routers. Views converge as LSAs flood.
	view map[topology.NodeID]map[packet.GroupID]map[topology.NodeID]bool
	// seen[node] dedupes LSA floods.
	seen map[topology.NodeID]map[lsaKey]bool
	// lsaSeq[origin] numbers LSAs per originating router.
	lsaSeq map[topology.NodeID]uint64
	// fwdCache tracks the (source, group) forwarding-cache entries each
	// router has instantiated — the per-pair state real MOSPF builds on
	// demand when data arrives.
	fwdCache map[cacheKey]bool
}

type cacheKey struct {
	node, src topology.NodeID
	group     packet.GroupID
}

var _ netsim.Protocol = (*MOSPF)(nil)

// New returns a MOSPF instance.
func New() *MOSPF {
	return &MOSPF{
		view:     make(map[topology.NodeID]map[packet.GroupID]map[topology.NodeID]bool),
		seen:     make(map[topology.NodeID]map[lsaKey]bool),
		lsaSeq:   make(map[topology.NodeID]uint64),
		fwdCache: make(map[cacheKey]bool),
	}
}

// Name implements netsim.Protocol.
func (m *MOSPF) Name() string { return "MOSPF" }

// StateEntries returns the state a router holds: its group-membership
// database records (one per known (group, member) pair, kept
// domain-wide by LSA flooding) plus the (source, group) forwarding
// cache entries it has instantiated. Both grow with sources and
// members — the storage cost the paper's §I charges MOSPF with.
func (m *MOSPF) StateEntries(node topology.NodeID) int {
	count := 0
	for _, members := range m.view[node] {
		count += len(members)
	}
	for k := range m.fwdCache {
		if k.node == node {
			count++
		}
	}
	return count
}

// Attach implements netsim.Protocol.
func (m *MOSPF) Attach(n *netsim.Network) { m.net = n }

func (m *MOSPF) nodeView(node topology.NodeID) map[packet.GroupID]map[topology.NodeID]bool {
	v := m.view[node]
	if v == nil {
		v = make(map[packet.GroupID]map[topology.NodeID]bool)
		m.view[node] = v
	}
	return v
}

func (m *MOSPF) applyMembership(node, member topology.NodeID, g packet.GroupID, joined bool) {
	v := m.nodeView(node)
	if v[g] == nil {
		v[g] = make(map[topology.NodeID]bool)
	}
	if joined {
		v[g][member] = true
	} else {
		delete(v[g], member)
	}
}

// --- LSA flooding -------------------------------------------------------

// lsaPayload encodes (member, joined) — the group rides in the packet
// header.
func lsaPayload(member topology.NodeID, joined bool) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(member))
	if joined {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeLSA(b []byte) (member topology.NodeID, joined bool, ok bool) {
	if len(b) != 5 {
		return 0, false, false
	}
	return topology.NodeID(binary.BigEndian.Uint32(b)), b[4] == 1, true
}

// floodLSA originates a membership LSA at node and floods it.
func (m *MOSPF) floodLSA(node topology.NodeID, g packet.GroupID, joined bool) {
	m.lsaSeq[node]++
	seq := m.lsaSeq[node]
	m.markSeen(node, lsaKey{node, seq})
	pkt := &netsim.Packet{
		Kind:    packet.GroupLSA,
		Group:   g,
		Src:     node,
		Seq:     seq,
		Payload: lsaPayload(node, joined),
		Size:    packet.ControlSize,
	}
	for _, l := range m.net.G.Neighbors(node) {
		m.net.SendLink(node, l.To, pkt)
	}
}

func (m *MOSPF) markSeen(node topology.NodeID, k lsaKey) bool {
	s := m.seen[node]
	if s == nil {
		s = make(map[lsaKey]bool)
		m.seen[node] = s
	}
	if s[k] {
		return false
	}
	s[k] = true
	return true
}

func (m *MOSPF) handleLSA(node topology.NodeID, pkt *netsim.Packet) {
	if !m.markSeen(node, lsaKey{pkt.Src, pkt.Seq}) {
		return // duplicate
	}
	member, joined, ok := decodeLSA(pkt.Payload)
	if !ok {
		return
	}
	m.applyMembership(node, member, pkt.Group, joined)
	for _, l := range m.net.G.Neighbors(node) {
		if l.To != pkt.From {
			m.net.SendLink(node, l.To, pkt)
		}
	}
}

// --- membership ---------------------------------------------------------

// HostJoin implements netsim.Protocol.
func (m *MOSPF) HostJoin(node topology.NodeID, g packet.GroupID) {
	m.applyMembership(node, node, g, true)
	m.floodLSA(node, g, true)
}

// HostLeave implements netsim.Protocol.
func (m *MOSPF) HostLeave(node topology.NodeID, g packet.GroupID) {
	m.applyMembership(node, node, g, false)
	m.floodLSA(node, g, false)
}

// --- data forwarding ------------------------------------------------------

// subtreeHasMember reports whether, in the tree given by parent, the
// subtree rooted at c contains a member of g according to node's
// membership view.
func (m *MOSPF) subtreeHasMember(node topology.NodeID, parent []topology.NodeID, c topology.NodeID, g packet.GroupID) bool {
	members := m.nodeView(node)[g]
	if len(members) == 0 {
		return false
	}
	// Walk each member's parent chain; if it passes through c, the
	// member lives in c's subtree.
	for mr := range members {
		v := mr
		for v != -1 {
			if v == c {
				return true
			}
			v = parent[v]
		}
	}
	return false
}

// forwardDown sends pkt from node to each child subtree holding members,
// children in ascending id order.
func (m *MOSPF) forwardDown(node topology.NodeID, parent []topology.NodeID, pkt *netsim.Packet) {
	var children []topology.NodeID
	for _, l := range m.net.G.Neighbors(node) {
		if parent[l.To] == node {
			children = append(children, l.To)
		}
	}
	slices.Sort(children)
	for _, c := range children {
		if m.subtreeHasMember(node, parent, c, pkt.Group) {
			m.net.SendLink(node, c, pkt)
		}
	}
}

// SendData implements netsim.Protocol.
func (m *MOSPF) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	pkt := &netsim.Packet{
		Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size,
		Created: m.net.Now(),
	}
	m.fwdCache[cacheKey{src, src, g}] = true
	m.forwardDown(src, m.net.Delay.Row(src).Parent, pkt)
}

func (m *MOSPF) handleData(node topology.NodeID, pkt *netsim.Packet) {
	parent := m.net.Delay.Row(pkt.Src).Parent
	if parent[node] != pkt.From {
		m.net.DropData(node) // not this router's place in the source tree
		return
	}
	m.fwdCache[cacheKey{node, pkt.Src, pkt.Group}] = true
	if m.nodeView(node)[pkt.Group][node] {
		m.net.DeliverLocal(node, pkt)
	}
	m.forwardDown(node, parent, pkt)
}

// HandlePacket implements netsim.Protocol.
func (m *MOSPF) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	switch pkt.Kind {
	case packet.GroupLSA:
		m.handleLSA(node, pkt)
	case packet.Data:
		m.handleData(node, pkt)
	}
}
