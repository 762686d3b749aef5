package netsim

import (
	"slices"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// NoUpstream marks a shared-tree entry without an upstream: the tree's
// root (SCMP's m-router, CBT's core) or a router off the tree.
const NoUpstream topology.NodeID = -1

// TreeEntry is one router's forwarding state for one group on a
// bi-directional shared tree — the paper's triple (group, upstream,
// downstream) plus the local-interface flags. SCMP and CBT program it
// with their own signalling and forward data through it by one rule
// (§III-F): accept a packet arriving from F = {upstream} ∪ downstream,
// then send it to the rest of F.
//
// The downstream set is an ascending, duplicate-free slice, so the
// forwarding loop walks it in the order every run agrees on without
// sorting per packet. Its zero value is an empty set; Upstream must be
// initialised to NoUpstream. Forward sends by CSR arc, resolved once
// per change: the child mutators drop the arcs, and the upstream's is
// keyed on the Upstream value it was resolved for, so a direct write to
// the field is caught too.
type TreeEntry struct {
	OnTree       bool
	Upstream     topology.NodeID
	HasLocal     bool // >=1 member interface on the local subnet
	PendingLocal bool // membership report seen, tree installation still in flight
	down         []topology.NodeID
	resolved     bool            // upArc and downArcs are the arcs to upFor and down
	upFor        topology.NodeID // the Upstream value upArc was resolved for
	upArc        int32
	downArcs     []int32
}

// Downstream returns the child routers in ascending order. The slice is
// the entry's own: callers must not mutate it, and it is only valid
// until the next change to the set.
func (e *TreeEntry) Downstream() []topology.NodeID { return e.down }

// AddDownstream adds v to the child set; adding a present child is a
// no-op.
func (e *TreeEntry) AddDownstream(v topology.NodeID) {
	if i, ok := slices.BinarySearch(e.down, v); !ok {
		e.down = slices.Insert(e.down, i, v)
		e.resolved = false
	}
}

// RemoveDownstream removes v from the child set; removing an absent
// child is a no-op.
func (e *TreeEntry) RemoveDownstream(v topology.NodeID) {
	if i, ok := slices.BinarySearch(e.down, v); ok {
		e.down = slices.Delete(e.down, i, i+1)
		e.resolved = false
	}
}

// SetDownstream replaces the child set with vs, in any order and with
// duplicates allowed. The entry copies vs into its own storage.
func (e *TreeEntry) SetDownstream(vs []topology.NodeID) {
	e.down = append(e.down[:0], vs...)
	slices.Sort(e.down)
	e.down = slices.Compact(e.down)
	e.resolved = false
}

// Accepts is the §III-F check: the entry is on the tree and the packet
// arrived from a router in F = {upstream} ∪ downstream.
func (e *TreeEntry) Accepts(from topology.NodeID) bool {
	if !e.OnTree {
		return false
	}
	if from == e.Upstream {
		return true
	}
	_, child := slices.BinarySearch(e.down, from)
	return child
}

// Forward sends pkt from node (the router holding the entry) to the rest
// of F: the upstream and every child except the router it came from, in
// ascending child order.
func (e *TreeEntry) Forward(n *Network, node topology.NodeID, pkt *Packet, except topology.NodeID) {
	if !e.resolved || e.upFor != e.Upstream {
		e.resolveArcs(n, node)
	}
	if e.Upstream != NoUpstream && e.Upstream != except {
		n.SendArc(node, e.upArc, pkt)
	}
	for i, d := range e.down {
		if d != except {
			n.SendArc(node, e.downArcs[i], pkt)
		}
	}
}

// resolveArcs looks up the arcs from node to the upstream and every child.
func (e *TreeEntry) resolveArcs(n *Network, node topology.NodeID) {
	e.upFor, e.upArc = e.Upstream, -1
	if e.Upstream != NoUpstream {
		e.upArc = n.mustArc(node, e.Upstream)
	}
	e.downArcs = e.downArcs[:0]
	for _, d := range e.down {
		e.downArcs = append(e.downArcs, n.mustArc(node, d))
	}
	e.resolved = true
}

// Live reports whether the entry counts as routing state: the router is
// on the tree or has member interfaces, joined or joining.
func (e *TreeEntry) Live() bool { return e.OnTree || e.HasLocal || e.PendingLocal }

// LiveEntries counts the live entries in one router's per-group table —
// the state a shared-tree protocol's StateEntries reports.
func LiveEntries[E interface{ Live() bool }](byGroup map[packet.GroupID]E) int {
	count := 0
	for _, e := range byGroup {
		if e.Live() {
			count++
		}
	}
	return count
}
