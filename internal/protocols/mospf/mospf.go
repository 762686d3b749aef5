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
//
// All state is dense — bitsets over router ids, slices indexed by router
// or sequence number — so forwarding a packet walks a member bitset and
// a parent array and allocates nothing.
package mospf

import (
	"cmp"
	"encoding/binary"
	"slices"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// MOSPF is a protocol instance for one domain.
type MOSPF struct {
	net *netsim.Network
	csr *topology.CSR

	// groups holds the state of every group any router has heard of,
	// ascending by id.
	groups []*group
	// seen[origin][seq-1] is the set of routers that accepted origin's
	// LSA seq. It is created when the LSA is originated, so
	// len(seen[origin]) is origin's last sequence number, and released
	// (set to nil) once every router has accepted the LSA: a later copy
	// is a duplicate everywhere. Each LSA instance is applied once per
	// router, in arrival order: a late older LSA is still applied and
	// re-flooded.
	seen [][]netsim.NodeSet
	// cached[node] counts the (source, group) forwarding-cache entries
	// node has instantiated.
	cached []int

	// forwardDown's scratch: router ids, and the children found to lead
	// to a member.
	ids    []topology.NodeID
	marked netsim.NodeSet
}

// group is one group's state at every router.
type group struct {
	id packet.GroupID
	// view[node] is node's copy of the membership database for the
	// group: the member routers it has learned of. Views converge as
	// LSAs flood.
	view []netsim.NodeSet
	// cache[src] is the set of routers holding a (src, group)
	// forwarding-cache entry — the per-pair state real MOSPF builds on
	// demand when data arrives. Nil until src's first packet.
	cache []netsim.NodeSet
}

var _ netsim.Protocol = (*MOSPF)(nil)

// New returns a MOSPF instance.
func New() *MOSPF { return &MOSPF{} }

// StateEntries returns the state a router holds: its group-membership
// database records (one per known (group, member) pair, kept
// domain-wide by LSA flooding) plus the (source, group) forwarding
// cache entries it has instantiated. Both grow with sources and
// members — the storage cost the paper's §I charges MOSPF with.
func (m *MOSPF) StateEntries(node topology.NodeID) int {
	count := m.cached[node]
	for _, gs := range m.groups {
		count += gs.view[node].Count()
	}
	return count
}

// Attach implements netsim.Protocol.
func (m *MOSPF) Attach(n *netsim.Network) {
	m.net = n
	m.csr = n.G.CSR()
	m.seen = make([][]netsim.NodeSet, n.G.N())
	m.cached = make([]int, n.G.N())
	m.marked = netsim.NewNodeSet(n.G.N())
}

func byID(gs *group, g packet.GroupID) int { return cmp.Compare(gs.id, g) }

// group returns g's state, creating it the first time any router hears
// of g.
func (m *MOSPF) group(g packet.GroupID) *group {
	i, ok := slices.BinarySearchFunc(m.groups, g, byID)
	if !ok {
		// Allocates once per group, on the first packet or membership change that names it.
		m.groups = slices.Insert(m.groups, i, newGroup(g, len(m.seen)))
	}
	return m.groups[i]
}

func newGroup(id packet.GroupID, n int) *group {
	w := (n + 63) / 64
	views := make(netsim.NodeSet, n*w)
	gs := &group{id: id, view: make([]netsim.NodeSet, n), cache: make([]netsim.NodeSet, n)}
	for v := range gs.view {
		gs.view[v] = views[v*w : (v+1)*w : (v+1)*w]
	}
	return gs
}

// knows reports whether node's membership database lists member.
func (gs *group) knows(node, member topology.NodeID) bool { return gs.view[node].Has(member) }

func (m *MOSPF) applyMembership(node, member topology.NodeID, g packet.GroupID, joined bool) {
	v := m.group(g).view[node]
	if joined {
		v.Set(member)
	} else {
		v.Clear(member)
	}
}

// cacheEntry instantiates node's (src, group) forwarding-cache entry.
func (m *MOSPF) cacheEntry(gs *group, src, node topology.NodeID) {
	set := gs.cache[src]
	if set == nil {
		set = netsim.NewNodeSet(len(m.cached)) // allocates once per (source, group), on its first packet
		gs.cache[src] = set
	}
	if !set.Has(node) {
		set.Set(node)
		m.cached[node]++
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

// decodeLSA reads (member, joined); ok is false on a payload of the
// wrong length or a member that is not one of the n routers.
func decodeLSA(b []byte, n int) (member topology.NodeID, joined bool, ok bool) {
	if len(b) != 5 {
		return 0, false, false
	}
	member = topology.NodeID(binary.BigEndian.Uint32(b))
	return member, b[4] == 1, int(member) < n
}

// floodLSA originates a membership LSA at node and floods it.
func (m *MOSPF) floodLSA(node topology.NodeID, g packet.GroupID, joined bool) {
	accepted := netsim.NewNodeSet(len(m.seen))
	accepted.Set(node)
	m.seen[node] = append(m.seen[node], accepted)
	pkt := &netsim.Packet{
		Kind:    packet.GroupLSA,
		Group:   g,
		Src:     node,
		Seq:     uint64(len(m.seen[node])),
		Payload: lsaPayload(node, joined),
		Size:    packet.ControlSize,
	}
	lo, hi := m.csr.Row(node)
	for a := lo; a < hi; a++ {
		m.net.SendArc(node, a, pkt)
	}
}

// accepted returns the set of routers that accepted origin's LSA seq,
// nil when origin never originated it or every router has accepted it.
func (m *MOSPF) accepted(origin topology.NodeID, seq uint64) netsim.NodeSet {
	if origin < 0 || int(origin) >= len(m.seen) || seq == 0 || seq > uint64(len(m.seen[origin])) {
		return nil
	}
	return m.seen[origin][seq-1]
}

// handleLSA applies and re-floods an LSA the first time node sees it.
// A malformed LSA — unknown origin or sequence number, bad payload — is
// dropped.
func (m *MOSPF) handleLSA(node topology.NodeID, pkt *netsim.Packet) {
	accepted := m.accepted(pkt.Src, pkt.Seq)
	if accepted == nil || accepted.Has(node) {
		return // malformed, or a duplicate
	}
	accepted.Set(node)
	if accepted.Count() == len(m.seen) {
		m.seen[pkt.Src][pkt.Seq-1] = nil // every router has it: release the set
	}
	member, joined, ok := decodeLSA(pkt.Payload, len(m.seen))
	if !ok {
		return
	}
	m.applyMembership(node, member, pkt.Group, joined)
	lo, hi := m.csr.Row(node)
	for a := lo; a < hi; a++ {
		if m.csr.ArcDst(a) != pkt.From {
			m.net.SendArc(node, a, pkt)
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

// forwardDown sends pkt from node to each child subtree holding a member
// of node's view, children in ascending id order. Each member's parent
// chain in the source tree is walked up until it reaches node or the
// root; the router it passed just before node is the child whose
// subtree holds that member.
func (m *MOSPF) forwardDown(node topology.NodeID, parent []topology.NodeID, gs *group, pkt *netsim.Packet) {
	m.ids = gs.view[node].AppendIDs(m.ids[:0])
	for _, v := range m.ids {
		child := topology.NodeID(-1)
		for v != -1 && v != node {
			child, v = v, parent[v]
		}
		if v == node && child != -1 {
			m.marked.Set(child)
		}
	}
	m.ids = m.marked.AppendIDs(m.ids[:0])
	for _, c := range m.ids {
		m.marked.Clear(c)
		m.net.SendLink(node, c, pkt)
	}
}

// SendData implements netsim.Protocol.
func (m *MOSPF) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	pkt := &netsim.Packet{
		Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size,
		Created: m.net.Now(),
	}
	gs := m.group(g)
	m.cacheEntry(gs, src, src)
	m.forwardDown(src, m.net.Delay.Row(src).Parent, gs, pkt)
}

func (m *MOSPF) handleData(node topology.NodeID, pkt *netsim.Packet) {
	parent := m.net.Delay.Row(pkt.Src).Parent
	if parent[node] != pkt.From {
		m.net.DropData(node) // not this router's place in the source tree
		return
	}
	gs := m.group(pkt.Group)
	m.cacheEntry(gs, pkt.Src, node)
	if gs.knows(node, node) {
		m.net.DeliverLocal(node, pkt)
	}
	m.forwardDown(node, parent, gs, pkt)
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
