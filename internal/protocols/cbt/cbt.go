// Package cbt implements the Core-Based Tree baseline: a single shared
// bi-directional tree per group rooted at a core router.
//
// A designated router joining a group sends a JOIN hop-by-hop along the
// unicast route toward the core; the first on-tree router (or the core)
// intercepts it and returns a JOIN-ACK along the reverse path,
// instantiating forwarding state hop by hop — this is why CBT's join
// overhead is slightly below SCMP's in the paper's Fig. 8: "CBT only
// needs to send an acknowledgement packet from the graft node to the
// newly joining node, while SCMP always needs to send a BRANCH packet
// from the m-router all the way down". Leaves send QUIT upstream.
// Off-tree sources unicast-encapsulate data to the core. (The paper
// does not simulate core election; neither do we.)
package cbt

import (
	"fmt"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// CBT is a protocol instance for one domain. A router's per-group state
// is the shared-tree entry alone.
type CBT struct {
	net     *netsim.Network
	core    topology.NodeID
	entries map[topology.NodeID]map[packet.GroupID]*netsim.TreeEntry
}

var _ netsim.Protocol = (*CBT)(nil)

// New returns a CBT instance with the given core router.
func New(core topology.NodeID) *CBT {
	return &CBT{
		core:    core,
		entries: make(map[topology.NodeID]map[packet.GroupID]*netsim.TreeEntry),
	}
}

// Attach implements netsim.Protocol.
func (c *CBT) Attach(n *netsim.Network) {
	if c.core < 0 || int(c.core) >= n.G.N() {
		panic(fmt.Sprintf("cbt: core %d out of range", c.core))
	}
	c.net = n
}

// Upstream reports node's parent on g's shared tree; ok is false when
// the node is off the tree or is the core (which has no upstream).
func (c *CBT) Upstream(node topology.NodeID, g packet.GroupID) (topology.NodeID, bool) {
	e := c.peekEntry(node, g)
	if e == nil || !e.OnTree || e.Upstream == netsim.NoUpstream {
		return -1, false
	}
	return e.Upstream, true
}

// StateEntries returns the number of live routing entries a router
// holds — one per group, like SCMP: shared-tree state is independent of
// source count.
func (c *CBT) StateEntries(node topology.NodeID) int {
	return netsim.LiveEntries(c.entries[node])
}

func (c *CBT) entry(node topology.NodeID, g packet.GroupID) *netsim.TreeEntry {
	byGroup := c.entries[node]
	if byGroup == nil {
		byGroup = make(map[packet.GroupID]*netsim.TreeEntry)
		c.entries[node] = byGroup
	}
	e := byGroup[g]
	if e == nil {
		e = &netsim.TreeEntry{Upstream: netsim.NoUpstream}
		byGroup[g] = e
	}
	return e
}

func (c *CBT) peekEntry(node topology.NodeID, g packet.GroupID) *netsim.TreeEntry {
	return c.entries[node][g]
}

// onTree reports whether node has live tree state for g; the core is
// always implicitly on the tree.
func (c *CBT) onTree(node topology.NodeID, g packet.GroupID) bool {
	if node == c.core {
		return true
	}
	e := c.peekEntry(node, g)
	return e != nil && e.OnTree
}

// --- membership ----------------------------------------------------------

// HostJoin implements netsim.Protocol.
func (c *CBT) HostJoin(node topology.NodeID, g packet.GroupID) {
	e := c.entry(node, g)
	if node == c.core || e.OnTree {
		e.OnTree = true
		e.HasLocal = true
		return
	}
	e.PendingLocal = true
	// Hop-by-hop JOIN toward the core; the payload accumulates the path
	// so the ACK can retrace it.
	c.forwardJoin(node, node, g, []topology.NodeID{node})
}

// forwardJoin advances a JOIN one hop toward the core. path holds the
// routers traversed so far, joining DR first.
func (c *CBT) forwardJoin(at, origin topology.NodeID, g packet.GroupID, path []topology.NodeID) {
	nh := c.net.Delay.Hop(at, c.core)
	if nh == -1 {
		return // partitioned: join dies
	}
	c.net.SendLink(at, nh, &netsim.Packet{
		Kind:    packet.CbtJoin,
		Group:   g,
		Src:     origin,
		Payload: packet.EncodeBranch(append(append([]topology.NodeID(nil), path...), nh)),
		Size:    packet.ControlSize + 4*len(path),
	})
}

func (c *CBT) handleJoin(node topology.NodeID, pkt *netsim.Packet) {
	path, err := packet.DecodeBranch(pkt.Payload)
	if err != nil || len(path) < 2 || path[len(path)-1] != node {
		return
	}
	if c.onTree(node, pkt.Group) {
		// Graft point found: this router adds the previous hop as a
		// child and acks back down the recorded path.
		e := c.entry(node, pkt.Group)
		e.OnTree = true
		prev := path[len(path)-2]
		e.AddDownstream(prev)
		c.sendAck(node, prev, pkt.Group, path[:len(path)-1])
		return
	}
	// Keep heading for the core.
	c.forwardJoin(node, pkt.Src, pkt.Group, path)
}

// sendAck sends a JOIN-ACK from node to child; remaining is the path
// suffix still to be confirmed (ending at the child, joining DR first).
func (c *CBT) sendAck(node, child topology.NodeID, g packet.GroupID, remaining []topology.NodeID) {
	c.net.SendLink(node, child, &netsim.Packet{
		Kind:    packet.CbtJoinAck,
		Group:   g,
		Payload: packet.EncodeBranch(remaining),
		Size:    packet.ControlSize,
	})
}

func (c *CBT) handleAck(node topology.NodeID, pkt *netsim.Packet) {
	path, err := packet.DecodeBranch(pkt.Payload)
	if err != nil || len(path) == 0 || path[len(path)-1] != node {
		return
	}
	e := c.entry(node, pkt.Group)
	e.OnTree = true
	e.Upstream = pkt.From
	if len(path) == 1 {
		// The joining DR.
		if e.PendingLocal {
			e.PendingLocal = false
			e.HasLocal = true
		}
		return
	}
	next := path[len(path)-2]
	e.AddDownstream(next)
	c.sendAck(node, next, pkt.Group, path[:len(path)-1])
}

// HostLeave implements netsim.Protocol.
func (c *CBT) HostLeave(node topology.NodeID, g packet.GroupID) {
	e := c.peekEntry(node, g)
	if e == nil {
		return
	}
	e.HasLocal = false
	e.PendingLocal = false
	if node != c.core && e.OnTree && len(e.Downstream()) == 0 {
		c.sendQuit(node, g, e)
	}
}

func (c *CBT) sendQuit(node topology.NodeID, g packet.GroupID, e *netsim.TreeEntry) {
	up := e.Upstream
	e.OnTree = false
	e.Upstream = netsim.NoUpstream
	if up == netsim.NoUpstream {
		return
	}
	c.net.SendLink(node, up, &netsim.Packet{
		Kind: packet.CbtQuit, Group: g, Src: node, Size: packet.ControlSize,
	})
}

func (c *CBT) handleQuit(node topology.NodeID, pkt *netsim.Packet) {
	e := c.peekEntry(node, pkt.Group)
	if e == nil || !e.OnTree && node != c.core {
		return
	}
	e.RemoveDownstream(pkt.From)
	if node != c.core && len(e.Downstream()) == 0 && !e.HasLocal && !e.PendingLocal {
		c.sendQuit(node, pkt.Group, e)
	}
}

// --- data ------------------------------------------------------------------

// SendData implements netsim.Protocol: on-tree sources use the shared
// bi-directional tree; off-tree sources encapsulate to the core.
func (c *CBT) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	pkt := &netsim.Packet{
		Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size,
		Created: c.net.Now(),
	}
	if c.onTree(src, g) {
		c.entry(src, g).Forward(c.net, src, pkt, src)
		return
	}
	enc := *pkt
	enc.Kind = packet.EncapData
	enc.Dst = c.core
	enc.Size = size + packet.EncapHeaderSize
	c.net.SendUnicast(src, &enc)
}

// handleData forwards a packet arriving from F = {upstream} ∪
// downstream to the rest of F and delivers it locally; anything else is
// dropped.
func (c *CBT) handleData(node topology.NodeID, pkt *netsim.Packet) {
	e := c.peekEntry(node, pkt.Group)
	if e == nil || !e.Accepts(pkt.From) {
		c.net.DropData(node)
		return
	}
	e.Forward(c.net, node, pkt, pkt.From)
	if e.HasLocal {
		c.net.DeliverLocal(node, pkt)
	}
}

func (c *CBT) handleEncap(node topology.NodeID, pkt *netsim.Packet) {
	if node != c.core {
		return
	}
	e := c.entry(node, pkt.Group)
	e.OnTree = true
	data := *pkt
	data.Kind = packet.Data
	data.Size = pkt.Size - packet.EncapHeaderSize
	e.Forward(c.net, node, &data, node)
	if e.HasLocal {
		c.net.DeliverLocal(node, &data)
	}
}

// HandlePacket implements netsim.Protocol.
func (c *CBT) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	switch pkt.Kind {
	case packet.CbtJoin:
		c.handleJoin(node, pkt)
	case packet.CbtJoinAck:
		c.handleAck(node, pkt)
	case packet.CbtQuit:
		c.handleQuit(node, pkt)
	case packet.Data:
		c.handleData(node, pkt)
	case packet.EncapData:
		c.handleEncap(node, pkt)
	}
}
