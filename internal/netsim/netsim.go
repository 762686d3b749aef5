// Package netsim is the packet-level network simulator the protocols run
// on — the offline stand-in for NS-2. It combines a topology graph, the
// discrete-event scheduler, per-link packet transmission with delay, a
// unicast shortest-delay routing substrate (the "link state unicast
// routing protocol" every domain is assumed to run), metrics accounting
// per the paper's definitions, and ground-truth delivery tracking so
// tests can assert exactly-once delivery to every group member.
//
// The steady-state forwarding path is allocation-free: in-flight packet
// copies come from a free-list pool and are handed back after delivery,
// each owning a payload buffer it keeps across recycling,
// link crossings are scheduled through the DES typed-sink path (no
// closure per hop) on one FIFO lane per arc (the scheduler's heap holds
// one entry per busy link, not per packet), per-link state (busy
// horizons, load counters, lanes) is indexed by dense CSR arc id, and
// membership/delivery ground truth lives in bitsets and a ledger of
// fixed 12-byte records indexed by data-packet seq, whose router sets
// come from a pool and are held only while a packet is still owed a
// delivery, so a fan-out allocates nothing (DESIGN.md §10).
package netsim

import (
	"fmt"
	"math/bits"
	"slices"

	"scmp/internal/des"
	"scmp/internal/metrics"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// Packet is one simulated packet. Protocols never mutate a received
// packet; forwarding goes through Network.SendLink, which copies it.
// Every send copies the payload bytes too, into a buffer the in-flight
// copy owns, so a sender may encode into scratch it reuses as soon as
// the send returns. A delivered packet (and its Payload) must not be
// retained past HandlePacket: the simulator recycles the copy, buffer
// included, once the handler returns.
type Packet struct {
	Kind    packet.Kind
	Group   packet.GroupID
	Src     topology.NodeID // originating router
	From    topology.NodeID // previous hop, set on delivery
	Dst     topology.NodeID // unicast destination, when meaningful
	Seq     uint64          // data-packet identity for delivery tracking
	Version uint64          // SCMP tree-distribution version
	Payload []byte
	Size    int
	Created des.Time // when the original data packet entered the network
}

// ParallelSafe was the opt-in interface of the withdrawn partitioned
// drive (DESIGN.md §12). Nothing in the simulator consults it.
//
// Deprecated: compile shim for bench/sim.go, which is frozen outside
// benchmark PRs; the next benchmark PR drops the assertion and this
// declaration with it.
type ParallelSafe interface {
	ParallelWindowSafe() bool
}

// Protocol is a multicast routing protocol under test. One Protocol
// instance manages per-router state for every router in the domain
// (routers are identified by NodeID in each call).
type Protocol interface {
	// Attach wires the protocol to a network. Called exactly once, by
	// New or Reset.
	Attach(n *Network)
	// HandlePacket processes a packet arriving at a router.
	HandlePacket(node topology.NodeID, pkt *Packet)
	// HostJoin tells the designated router that its subnet gained the
	// first member host of group g (IGMP report edge).
	HostJoin(node topology.NodeID, g packet.GroupID)
	// HostLeave tells the designated router that its subnet lost the
	// last member host of group g (IGMP leave edge).
	HostLeave(node topology.NodeID, g packet.GroupID)
	// SendData injects one data packet for group g at source router src.
	// The source may or may not be a group member.
	SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64)
}

// NodeSet is a fixed-capacity bitset over router ids: the simulator's
// membership ground truth and the protocols' dense per-router state.
type NodeSet []uint64

// NewNodeSet returns an empty set over routers 0..n-1.
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

func (s NodeSet) Has(v topology.NodeID) bool { return s[v>>6]&(1<<(uint(v)&63)) != 0 }
func (s NodeSet) Set(v topology.NodeID)      { s[v>>6] |= 1 << (uint(v) & 63) }
func (s NodeSet) Clear(v topology.NodeID)    { s[v>>6] &^= 1 << (uint(v) & 63) }

// Count returns the number of set bits.
func (s NodeSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendIDs appends the set members in ascending order.
func (s NodeSet) AppendIDs(out []topology.NodeID) []topology.NodeID {
	for wi, w := range s {
		out = appendWord(out, w, wi)
	}
	return out
}

// appendWord appends the ids of the set bits of w, word wi of a set, in
// ascending order.
func appendWord(out []topology.NodeID, w uint64, wi int) []topology.NodeID {
	for w != 0 {
		b := bits.TrailingZeros64(w)
		out = append(out, topology.NodeID(wi<<6+b))
		w &= w - 1
	}
	return out
}

// record is the delivery ledger's entry for one data packet, 12 bytes
// at any router count. While left > 0 it holds two pooled router sets:
// snap, the members at send time, and reached, which starts as the
// sender (a sending member does not deliver to itself over the
// network), so missing = snap \ reached. Once left is zero every
// further delivery is a duplicate or unexpected, so the record needs
// neither set: anomalies go to the network's sparse odd list.
type record struct {
	snap, reached int32 // pooled set slots, held while left > 0
	left          int32 // expected receivers not yet reached
}

// recordChunk locates record i (seq i+1) in the ledger: chunk k holds
// 8<<k records, doubling to 1024 like the session accounting log, so a
// short run's ledger stays small and a new chunk never moves a record.
func recordChunk(i uint64) (k int, off uint64) {
	const doubling = 8 * (1<<7 - 1) // records in chunks 0..6 (8 to 512)
	if i < doubling {
		k = bits.Len64(i/8+1) - 1
		return k, i - 8*(1<<k-1)
	}
	return 7 + int((i-doubling)/1024), (i - doubling) % 1024
}

// groupTruth is one group's ground-truth membership: the pooled set of
// its member routers and its size. Every packet sent while the set is
// current shares it as its snapshot; HostJoin and HostLeave move the
// group to a copy when such a packet is still owed a delivery.
type groupTruth struct{ set, count int32 }

// Network is one simulated domain.
type Network struct {
	G       *topology.Graph
	Sched   *des.Scheduler
	Metrics *metrics.Collector
	Proto   Protocol

	// Delay and Cost are the network's one shortest-path store: lazy
	// tables over the live topology (RecomputeRoutes) that every reader
	// on the network shares instead of keeping its own. Links are
	// symmetric, so a Delay row is both the unicast forwarding table
	// toward its root (Hop) and its root's shortest-delay tree (Row).
	// Cost starts no row unless someone reads it.
	Delay, Cost *topology.AllPairs

	seq     uint64
	members map[packet.GroupID]groupTruth

	// The delivery ledger: seq s (dense from 1) is at recordChunk(s-1);
	// pooled router sets, slot s at words[s*w:(s+1)*w], with their
	// holder counts; slots [0, used) were taken since Reset and free
	// lists those returned since, all empty; duplicate and unexpected
	// deliveries by seq.
	records [][]record
	words   []uint64
	refs    []int32
	used    int32
	free    []int32
	odd     map[uint64][]topology.NodeID

	// Trace, when set, observes every link crossing (for debugging and
	// the examples' live narration). The *Packet argument is only valid
	// for the duration of the call.
	Trace func(from, to topology.NodeID, pkt *Packet)

	// Bandwidth, when positive, gives every link a finite capacity in
	// bytes per second: packets serialise per link direction, so a
	// packet's total latency is queueing + transmission (size/Bandwidth)
	// + propagation — the paper's three-component link delay. Zero (the
	// default) models infinite capacity: propagation only. Set it before
	// the first send: a link's packets queue in arrival order, which a
	// capacity dropped to zero mid-flight would overtake.
	Bandwidth float64

	// Link state: the CSR arc table (directed edge ids), each arc's
	// undirected link index for dense metrics, per-arc busy horizons
	// (allocated on first finite-Bandwidth send), the scheduler lanes of
	// the arcs (arc a's is arcLanes+a) and the free list of in-flight
	// packet copies.
	csr      *topology.CSR
	arcUID   []int32
	busy     []des.Time
	arcLanes des.Lane
	pool     []*Packet

	// scriptLanes holds the scheduler lanes scripts queue on; a drained
	// one, and its script's storage, is reused by the next install.
	scriptLanes []scriptLane

	faults *Faults
}

// Sink operation codes for typed delivery and script events.
const (
	opDeliver uint8 = iota // one link hop on arc a: deliver to the protocol at b
	opUnicast              // unicast relay on arc a: forward again unless b == Dst
	opSelf                 // self-delivery of a locally injected packet
	opScript               // steps a..b of the *Script in p
)

// New builds a network over g running proto. It does the one-time
// set-up of the graph — the routing store (empty: a row is computed when
// first consulted), the arc table the metrics collector counts links by,
// the arc lanes — and then starts proto through Reset, so a new network
// and a reused one go through one initialisation path.
func New(g *topology.Graph, proto Protocol) *Network {
	n := &Network{
		G:       g,
		Sched:   des.New(),
		Metrics: &metrics.Collector{},
		Delay:   topology.NewLazyAllPairs(g, topology.ByDelay),
		Cost:    topology.NewLazyAllPairs(g, topology.ByCost),
		csr:     g.CSR(),
		members: make(map[packet.GroupID]groupTruth),
		odd:     make(map[uint64][]topology.NodeID),
	}
	// Assign every directed arc its undirected link index, in CSR scan
	// order (link {u,v} is first met on arc u->v, u < v; the reverse arc
	// copies its index), and register the table for dense load counting.
	ids := make([]metrics.LinkID, 0, g.M())
	n.arcUID = make([]int32, n.csr.NumArcs())
	n.arcLanes = n.Sched.NewLanes(int(n.csr.NumArcs()))
	for u := topology.NodeID(0); int(u) < g.N(); u++ {
		lo, hi := n.csr.Row(u)
		for i := lo; i < hi; i++ {
			if v := n.csr.ArcDst(i); u < v {
				n.arcUID[i] = int32(len(ids))
				ids = append(ids, metrics.MkLinkID(u, v))
			} else {
				n.arcUID[i] = n.arcUID[n.Arc(v, u)]
			}
		}
	}
	n.Metrics.UseDenseLinks(ids)
	n.Sched.SetSink(n)
	n.Reset(proto)
	return n
}

// Reset starts proto, a protocol instance no network has attached, on a
// drained network as if New had just built it: the scheduler is back at
// time zero (des.Scheduler.Reset), the metrics, members, delivery
// ledger and data seq start over, Trace, Bandwidth and the busy
// horizons are cleared and any fault layer is dropped. It keeps the
// packet pool and the lanes and, unless a fault layer was installed,
// the routing rows, which are pure functions of (graph, weight, mask)
// (DESIGN.md §8); after a faulty run both tables are invalidated back
// to every link up. It panics while events are pending.
func (n *Network) Reset(proto Protocol) {
	if n.Sched.Pending() != 0 {
		panic("netsim: Reset of a network with events pending")
	}
	n.Sched.Reset()
	n.Metrics.Reset()
	clear(n.members)
	clear(n.odd)
	clear(n.words)
	n.used, n.free = 0, n.free[:0]
	n.seq = 0
	n.Trace, n.Bandwidth = nil, 0
	clear(n.busy)
	if n.faults != nil {
		n.faults = nil
		n.Delay.Invalidate(nil)
		n.Cost.Invalidate(nil)
	}
	n.Proto = proto
	proto.Attach(n)
}

// EventsFired returns the total events the scheduler has executed.
func (n *Network) EventsFired() uint64 { return n.Sched.Fired() }

// getPacket takes a packet from the free list (or allocates).
func (n *Network) getPacket() *Packet {
	if k := len(n.pool); k > 0 {
		p := n.pool[k-1]
		n.pool = n.pool[:k-1]
		return p
	}
	// Pool miss: a one-time warm-up allocation, amortized to zero at
	// steady state (PR 5 measured 0 allocs/op once the pool is primed).
	return new(Packet)
}

// putPacket hands a delivered in-flight copy back to the free list. Its
// Payload keeps the backing array for the next packet it carries.
func (n *Network) putPacket(p *Packet) {
	n.pool = append(n.pool, p)
}

// copyPacket takes a pooled in-flight copy of pkt whose payload lives in
// the copy's own backing array: the sender's bytes may be reused (or
// recycled with the packet they arrived in) once the send returns. The
// array grows to the largest payload the pooled packet has carried, so
// a steady-state send copies bytes and allocates nothing.
func (n *Network) copyPacket(pkt *Packet) *Packet {
	cp := n.getPacket()
	buf := cp.Payload[:0]
	*cp = *pkt
	cp.Payload = append(buf, pkt.Payload...) // amortised growth; the array is kept across recycling
	return cp
}

// Arc returns the CSR arc id from -> to, or -1 when not adjacent. Same
// linear neighbour scan (and scan order) as Graph.Edge, over flat arrays.
func (n *Network) Arc(from, to topology.NodeID) int32 {
	lo, hi := n.csr.Row(from)
	for i := lo; i < hi; i++ {
		if n.csr.ArcDst(i) == to {
			return i
		}
	}
	return -1
}

// mustArc is Arc for a send: a non-adjacent pair is a harness bug.
func (n *Network) mustArc(from, to topology.NodeID) int32 {
	a := n.Arc(from, to)
	if a < 0 {
		panic(fmt.Sprintf("netsim: SendLink %d->%d not adjacent", from, to))
	}
	return a
}

// arcLatency returns when a packet offered now on arc a is delivered,
// accounting for queueing and transmission when a finite Bandwidth is
// set, and updates the arc's busy horizon.
func (n *Network) arcLatency(a int32, size int) des.Time {
	now := n.Sched.Now()
	if n.Bandwidth <= 0 {
		return now + des.Time(n.csr.ArcDelay(a))
	}
	if n.busy == nil {
		// Lazy one-time init of the busy-horizon array, not per-packet.
		n.busy = make([]des.Time, n.csr.NumArcs())
	}
	start := now
	if b := n.busy[a]; b > start {
		start = b
	}
	tx := des.Time(float64(size) / n.Bandwidth)
	n.busy[a] = start + tx
	return start + tx + des.Time(n.csr.ArcDelay(a))
}

// Now returns the current simulated time.
func (n *Network) Now() des.Time { return n.Sched.Now() }

// RecomputeRoutes reconverges the routing store onto the current
// topology, masking out faulted links and crashed routers: every row of
// both tables is dropped (the tables keep their identity) and recomputed
// when first consulted, so rows read before it are dead. The fault layer
// calls it before notifying listeners of any change; it is also safe to
// call directly.
func (n *Network) RecomputeRoutes() {
	var down []bool
	if n.faults != nil {
		down = n.faults.down
	}
	n.Delay.Invalidate(down)
	n.Cost.Invalidate(down)
}

// admit applies the fault layer to one link crossing offered at send
// time: a down link (or crashed endpoint) refuses the packet outright,
// and random loss may claim it mid-flight. Refused or lost packets are
// counted per kind; only admitted && !lost packets were transmitted
// successfully (lost ones still occupied the link).
// The delivery callback must still re-check the fault state at arrival
// time — a fault can strike while the packet is in flight.
func (n *Network) admit(a int32, from, to topology.NodeID, kind packet.Kind) (admitted, lost bool) {
	if n.faults == nil {
		return true, false
	}
	if n.faults.down[a] {
		n.Metrics.OnDrop(kind)
		return false, false
	}
	return true, n.faults.loseArc(a, from, to, kind)
}

// arrived reports whether a packet scheduled on arc a survives to be
// handled at its far end, counting the drop otherwise. It reads the same
// arc mask admit does, so a crossing is judged by one rule at both ends.
func (n *Network) arrived(a int32, kind packet.Kind, lost bool) bool {
	if n.faults == nil {
		return true
	}
	if lost || n.faults.down[a] {
		n.Metrics.OnDrop(kind)
		return false
	}
	return true
}

// SendLink transmits a copy of pkt from one router to an adjacent one.
func (n *Network) SendLink(from, to topology.NodeID, pkt *Packet) {
	n.SendArc(from, n.mustArc(from, to), pkt)
}

// SendArc transmits a copy of pkt over arc a, which leaves router from:
// it accounts the link crossing and schedules HandlePacket at the far
// end after the link delay. The arc names the crossing until delivery.
func (n *Network) SendArc(from topology.NodeID, a int32, pkt *Packet) {
	to := n.csr.ArcDst(a)
	admitted, lost := n.admit(a, from, to, pkt.Kind)
	if !admitted {
		return
	}
	cp := n.copyPacket(pkt)
	cp.From = from
	n.Metrics.OnLinkDense(n.arcUID[a], cp.Kind, n.csr.ArcCost(a), cp.Size)
	if n.Trace != nil {
		n.Trace(from, to, cp)
	}
	//scmplint:ignore poollife — the scheduler holds the in-flight copy as any until SinkEvent hands it to the handler and back to the pool
	n.Sched.LaneSink(n.lane(a), n.arcLatency(a, cp.Size), opDeliver, a, int32(to), cp, lost)
}

// lane returns arc a's scheduler lane. An arc's delivery times never
// decrease in send order (arcLatency is now plus a fixed delay, or the
// busy horizon, which only grows), so its packets queue on the lane in
// arrival order.
func (n *Network) lane(a int32) des.Lane { return n.arcLanes + des.Lane(a) }

// SinkEvent dispatches a typed delivery or script event; it implements
// des.Sink and is invoked only by the scheduler. A link crossing carries
// its arc in a and the arc's far end in b (the sender is pkt.From).
func (n *Network) SinkEvent(op uint8, a, b int32, p any, flag bool) {
	if op == opScript {
		// Timed inputs are control-plane work: ground-truth sets and
		// protocol state may allocate, and no data packet is in flight.
		n.runSteps(p.(*Script), int(a), int(b))
		return
	}
	pkt := p.(*Packet)
	to := topology.NodeID(b)
	switch op {
	case opDeliver:
		if n.arrived(a, pkt.Kind, flag) {
			n.Proto.HandlePacket(to, pkt)
		}
		n.putPacket(pkt)
	case opUnicast:
		if !n.arrived(a, pkt.Kind, flag) {
			n.putPacket(pkt)
			return
		}
		if to == pkt.Dst {
			n.Proto.HandlePacket(to, pkt)
			n.putPacket(pkt)
			return
		}
		n.unicastStep(to, pkt)
	case opSelf:
		n.Proto.HandlePacket(to, pkt)
		n.putPacket(pkt)
	}
}

// SendUnicast routes a copy of pkt hop-by-hop from src to pkt.Dst along
// the unicast substrate. Intermediate routers forward below the
// multicast protocol (the crossing is accounted but HandlePacket fires
// only at the destination). Delivering to self is immediate.
func (n *Network) SendUnicast(src topology.NodeID, pkt *Packet) {
	cp := n.copyPacket(pkt)
	if src == cp.Dst {
		cp.From = src
		//scmplint:ignore poollife — the scheduler holds the in-flight copy as any until SinkEvent hands it to the handler and back to the pool
		n.Sched.AtSink(n.Sched.Now(), opSelf, -1, int32(src), cp, false)
		return
	}
	n.unicastStep(src, cp)
}

// unicastStep forwards an owned in-flight copy one hop toward its
// destination, reusing the same pooled packet across all hops.
func (n *Network) unicastStep(at topology.NodeID, pkt *Packet) {
	nh := n.Delay.Hop(at, pkt.Dst)
	if nh == -1 {
		// With faults installed a partition is a legitimate runtime
		// state: the packet dies here and the drop is accounted.
		// Without faults an unreachable destination is a harness bug.
		if n.faults != nil {
			n.Metrics.OnDrop(pkt.Kind)
			n.putPacket(pkt)
			return
		}
		panic(fmt.Sprintf("netsim: no unicast route %d->%d", at, pkt.Dst))
	}
	a := n.Arc(at, nh)
	admitted, lost := n.admit(a, at, nh, pkt.Kind)
	if !admitted {
		n.putPacket(pkt)
		return
	}
	pkt.From = at
	n.Metrics.OnLinkDense(n.arcUID[a], pkt.Kind, n.csr.ArcCost(a), pkt.Size)
	if n.Trace != nil {
		n.Trace(at, nh, pkt)
	}
	//scmplint:ignore poollife — the scheduler holds the in-flight copy as any until SinkEvent hands it to the handler and back to the pool
	n.Sched.LaneSink(n.lane(a), n.arcLatency(a, pkt.Size), opUnicast, a, int32(nh), pkt, lost)
}

// HostJoin registers a member-host edge at router node (ground truth)
// and informs the protocol.
func (n *Network) HostJoin(node topology.NodeID, g packet.GroupID) {
	gt, ok := n.members[g]
	if !ok {
		gt.set = n.takeSet()
	}
	if !n.set(gt.set).Has(node) {
		gt.set = n.own(gt.set)
		n.set(gt.set).Set(node)
		gt.count++
		n.members[g] = gt
	}
	n.Proto.HostJoin(node, g)
}

// HostLeave removes the member-host edge at router node and informs the
// protocol.
func (n *Network) HostLeave(node topology.NodeID, g packet.GroupID) {
	if gt, ok := n.members[g]; ok && n.set(gt.set).Has(node) {
		gt.set = n.own(gt.set)
		n.set(gt.set).Clear(node)
		gt.count--
		n.members[g] = gt
	}
	n.Proto.HostLeave(node, g)
}

// Members returns the ground-truth member routers of g, sorted.
func (n *Network) Members(g packet.GroupID) []topology.NodeID {
	gt, ok := n.members[g]
	if !ok {
		return nil
	}
	return n.set(gt.set).AppendIDs(make([]topology.NodeID, 0, gt.count))
}

// IsMember reports ground-truth membership.
func (n *Network) IsMember(node topology.NodeID, g packet.GroupID) bool {
	gt, ok := n.members[g]
	return ok && n.set(gt.set).Has(node)
}

// SendData injects one data packet at src for group g, snapshotting the
// current member set as the expected receivers. It returns the packet's
// sequence number for delivery checking.
func (n *Network) SendData(src topology.NodeID, g packet.GroupID, size int) uint64 {
	n.seq++
	seq := n.seq
	k, off := recordChunk(seq - 1)
	if k == len(n.records) {
		n.records = append(n.records, make([]record, 8<<min(k, 7)))
	}
	r := &n.records[k][off]
	*r = record{}
	if gt, ok := n.members[g]; ok {
		if r.left = gt.count; n.set(gt.set).Has(src) {
			r.left--
		}
		if r.left > 0 {
			r.snap, r.reached = gt.set, n.takeSet()
			n.refs[r.snap]++
			n.set(r.reached).Set(src)
		}
	}
	n.Proto.SendData(src, g, size, seq)
	return seq
}

// set returns the pooled router set in slot s.
func (n *Network) set(s int32) NodeSet {
	w := int32(n.G.N()+63) / 64
	return NodeSet(n.words[s*w : (s+1)*w : (s+1)*w])
}

// takeSet takes an empty router set from the pool, growing the pool
// when every slot is held, and returns its slot, held once.
func (n *Network) takeSet() int32 {
	s := n.used
	if k := len(n.free); k > 0 {
		s, n.free = n.free[k-1], n.free[:k-1]
	} else {
		if int(s) == len(n.refs) {
			n.refs = append(n.refs, 0)
			n.words = append(n.words, make(NodeSet, (n.G.N()+63)/64)...)
		}
		n.used++
	}
	n.refs[s] = 1
	return s
}

// unref drops one hold on set slot s; the last returns it to the pool,
// emptied.
func (n *Network) unref(s int32) {
	if n.refs[s]--; n.refs[s] == 0 {
		clear(n.set(s))
		n.free = append(n.free, s)
	}
}

// own returns a slot only the caller holds with the members of slot s,
// which it held: s itself, or a copy when packets still owed a delivery
// hold s as their snapshot.
func (n *Network) own(s int32) int32 {
	if n.refs[s] == 1 {
		return s
	}
	c := n.takeSet()
	copy(n.set(c), n.set(s))
	n.unref(s)
	return c
}

// record returns data packet seq's ledger record, or nil for seq 0 (no
// data packet) or a seq SendData never issued.
func (n *Network) record(seq uint64) *record {
	if seq == 0 || seq > n.seq {
		return nil
	}
	k, off := recordChunk(seq - 1)
	return &n.records[k][off]
}

// DeliverLocal is called by protocols when a data packet reaches a
// router with local member hosts. It feeds the delay metric and the
// delivery record.
func (n *Network) DeliverLocal(node topology.NodeID, pkt *Packet) {
	n.Metrics.OnDeliver(float64(n.Sched.Now() - pkt.Created))
	r := n.record(pkt.Seq)
	if r == nil {
		return
	}
	if r.left > 0 && n.set(r.snap).Has(node) && !n.set(r.reached).Has(node) {
		n.set(r.reached).Set(node)
		if r.left--; r.left == 0 {
			n.unref(r.reached)
			n.unref(r.snap)
		}
		return
	}
	// A duplicate, a delivery to the sender or to a router not expected.
	n.odd[pkt.Seq] = append(n.odd[pkt.Seq], node)
}

// DropData is called by protocols when they discard a data packet at a
// router.
func (n *Network) DropData(node topology.NodeID) {
	n.Metrics.OnDrop(packet.Data)
}

// CheckDelivery compares a data packet's deliveries against the member
// snapshot taken at send time. It returns the members that never
// received it and the routers that received it more than once (or were
// not expected to deliver at all), each in ascending order.
func (n *Network) CheckDelivery(seq uint64) (missing, anomalous []topology.NodeID) {
	r := n.record(seq)
	if r == nil {
		return nil, nil
	}
	if r.left > 0 {
		exp, reached := n.set(r.snap), n.set(r.reached)
		for wi := range exp {
			missing = appendWord(missing, exp[wi]&^reached[wi], wi)
		}
	}
	if odd := n.odd[seq]; len(odd) > 0 {
		anomalous = slices.Clone(odd)
		slices.Sort(anomalous)
		anomalous = slices.Compact(anomalous)
	}
	return missing, anomalous
}

// Run drains all pending events (the network quiesces).
func (n *Network) Run() { n.Sched.Run() }

// RunUntil advances simulated time to the deadline.
func (n *Network) RunUntil(t des.Time) { n.Sched.RunUntil(t) }
