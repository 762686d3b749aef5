// Self-healing extensions to SCMP: reliable control signalling
// (ACK/retransmit with exponential backoff), periodic soft-state tree
// refresh, and local repair after link or router failures (REJOIN).
//
// All three are off by default (Config.AckTimeout / RefreshInterval
// zero; repair only reacts when a fault layer is installed), so the
// paper-faithful fault-free protocol of scmp.go is byte-identical with
// this file present. The fault model they defend against lives in
// internal/netsim (FaultPlan).
package core

import (
	"slices"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// defaultRetryCap bounds reliable-request retransmissions when the
// configuration leaves RetryCap zero.
const defaultRetryCap = 5

// pendingKey identifies one reliable request slot: a router has at most
// one outstanding request per group (a newer request supersedes).
type pendingKey struct {
	node topology.NodeID
	g    packet.GroupID
}

// replSlot is the sentinel "node" of a group's replication slot. The
// primary's snapshot ladder must not share a slot with the primary's
// own membership ladder for the same group — a snapshot superseding the
// primary's self-JOIN would cancel exactly the ladder that re-lands
// that membership after a failover.
const replSlot topology.NodeID = -2

// replKey returns the reliable-request slot of group g's replication
// stream (primary → standby snapshots).
func replKey(g packet.GroupID) pendingKey { return pendingKey{node: replSlot, g: g} }

// reqSlot is one (requester, group)'s outstanding reliable request. It
// is either on its retry ladder — timer is the next backoff step — or,
// once a retry budget is spent, parked: timer is the single deferred
// re-attempt (overload.go), which restarts the ladder in the same slot.
// A newer request from the same (requester, group) supersedes the slot
// in either state.
//
// Slots live in SCMP.reqs and are recycled through a free list, payload
// buffer included; a slot's timer carries the slot's index. Every path
// that releases or supersedes a slot stops its timer first, so a timer
// that fires always finds its own request in the slot.
//
// firstSeq..seq is the request's lineage: every sequence number this
// same logical operation has been transmitted under, across park /
// re-attempt cycles. An ACK bearing any of them resolves the request —
// on a topology whose control round trip exceeds the backoff ladder,
// the reply to one incarnation routinely arrives while a later
// incarnation is outstanding or the slot has parked, and matching only
// the newest sequence would livelock the slot forever.
type reqSlot struct {
	key      pendingKey
	live     bool
	kind     packet.Kind
	payload  []byte // the slot's own copy of the request payload
	seq      uint64
	firstSeq uint64
	attempt  int
	timer    des.Timer
	parked   bool
	// wasParked marks a slot that has parked at least once: its ACK counts
	// as a park recovery.
	wasParked bool
}

// acked reports whether a reply (an ACK or a NACK) for req with sequence
// seq answers any incarnation of this request's lineage.
func (r *reqSlot) acked(req packet.Kind, seq uint64) bool {
	return req == r.kind && seq >= r.firstSeq && seq <= r.seq
}

var _ netsim.FaultListener = (*SCMP)(nil)

// --- reliable control signalling ---------------------------------------

// sendReliable sends a control request from node to the group's
// m-router. With AckTimeout configured it registers the request for
// ACK-matching and retransmits with exponential backoff until
// acknowledged or the retry cap is reached; otherwise it degrades to
// the classic fire-and-forget unicast. The payload is copied, so it may
// be the caller's scratch.
func (s *SCMP) sendReliable(node topology.NodeID, g packet.GroupID, kind packet.Kind, payload []byte) {
	if s.cfg.AckTimeout <= 0 {
		s.transmit(node, g, kind, 0, payload)
		return
	}
	key := pendingKey{node, g}
	if kind == packet.Replicate {
		key = replKey(g) // dedicated slot: see replSlot
	}
	i, ok := s.slots[key]
	if ok {
		s.net.Sched.Stop(s.reqs[i].timer) // a newer request supersedes the slot, laddered or parked
	} else {
		i = s.newReq(key)
	}
	r := &s.reqs[i]
	*r = reqSlot{key: key, live: true, kind: kind, payload: append(r.payload[:0], payload...), firstSeq: s.reqSeq + 1}
	s.startLadder(i)
}

// newReq takes a free request slot (or grows the table) for key.
func (s *SCMP) newReq(key pendingKey) int32 {
	var i int32
	if n := len(s.freeReqs); n > 0 {
		i = s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
	} else {
		s.reqs = append(s.reqs, reqSlot{}) // amortised growth to the peak outstanding requests
		i = int32(len(s.reqs) - 1)
	}
	s.slots[key] = i
	return i
}

// releaseReq settles request slot i: its timer stops and the slot goes
// back on the free list.
func (s *SCMP) releaseReq(i int32) {
	r := &s.reqs[i]
	s.net.Sched.Stop(r.timer)
	r.live, r.timer = false, des.Timer{}
	delete(s.slots, r.key)
	s.freeReqs = append(s.freeReqs, i) // amortised: the free list never outgrows the table
}

// startLadder (re)starts slot i's retry ladder: a transmission under a
// fresh sequence number, extending the lineage, and the first backoff
// step.
func (s *SCMP) startLadder(i int32) {
	r := &s.reqs[i]
	s.reqSeq++
	r.seq, r.attempt, r.parked = s.reqSeq, 0, false
	s.transmit(r.key.node, r.key.g, r.kind, r.seq, r.payload)
	s.armRetry(i, s.backoff(0))
}

// dropSlots releases every request slot drop selects, whether on its
// ladder or parked.
func (s *SCMP) dropSlots(drop func(*reqSlot) bool) {
	for i := range s.reqs {
		if r := &s.reqs[i]; r.live && drop(r) {
			s.releaseReq(int32(i))
		}
	}
}

// staleCtl is the m-router-side ordering complement to the requester's
// per-slot supersede: sequence numbers are issued from one monotone
// counter, so a membership request carrying a lower sequence than one
// already accepted from the same (requester, group) is a retransmitted
// copy of a superseded operation — the requester has since sent (and
// the m-router applied) its successor, and applying the straggler would
// roll the membership back. Retransmissions of the *current* operation
// (equal sequence) pass, so a lost ACK is still re-answered.
// Sequence-less fire-and-forget requests are never filtered.
func (s *SCMP) staleCtl(member topology.NodeID, g packet.GroupID, seq uint64) bool {
	if seq == 0 {
		return false
	}
	key := pendingKey{member, g}
	if seq < s.ctlSeen[key] {
		return true
	}
	s.ctlSeen[key] = seq
	return false
}

// transmit puts one copy of a control request from node on the wire,
// addressed to the group's m-router. A reliable request's sequence
// number rides the packet's Seq field so the m-router can echo it in
// the ACK; seq 0 is the fire-and-forget form.
func (s *SCMP) transmit(node topology.NodeID, g packet.GroupID, kind packet.Kind, seq uint64, payload []byte) {
	src, dst := node, s.home(g)
	if kind == packet.Replicate {
		// Replication flows primary → standby, not requester → home.
		src, dst = s.homes[0], s.cfg.Standby
	}
	pkt := netsim.Packet{
		Kind:    kind,
		Group:   g,
		Src:     src,
		Dst:     dst,
		Seq:     seq,
		Payload: payload,
		Size:    packet.ControlSize,
	}
	s.net.SendUnicast(src, &pkt)
}

// armRetry schedules slot i's retransmission timer wait from now: the
// backoff step, or a NACK's retry-after.
func (s *SCMP) armRetry(i int32, wait des.Time) {
	s.reqs[i].timer = s.net.Sched.AtTimer(s.net.Now()+wait, s, tRetry, i, 0)
}

// backoff returns the retransmission wait after attempt retransmissions:
// AckTimeout doubled per attempt.
func (s *SCMP) backoff(attempt int) des.Time {
	return des.Time(s.cfg.AckTimeout * float64(uint64(1)<<uint(attempt)))
}

// retryFire is one retransmission-timer expiry of slot i (or a
// NACK-directed deferred retransmission): at the retry limit the request
// gives up — parking when a retry budget is configured — otherwise it
// retransmits and re-arms the next backoff step.
func (s *SCMP) retryFire(i int32) {
	r := &s.reqs[i]
	if r.attempt >= s.retryLimit() {
		// Give up: the soft-state refresh (and ground-truth re-reports
		// after a restart) are the backstop — or, with a retry budget
		// configured, the parked deferred re-attempt (overload.go). A
		// quiesced instance releases instead, so the ladder ends.
		if s.cfg.RetryBudget > 0 && !s.quiet {
			s.park(i)
		} else {
			s.releaseReq(i)
		}
		return
	}
	r.attempt++
	s.transmit(r.key.node, r.key.g, r.kind, r.seq, r.payload)
	s.armRetry(i, s.backoff(r.attempt))
}

// retryLimit returns the retransmissions allowed per reliable request:
// the retry budget when configured, else the legacy cap.
func (s *SCMP) retryLimit() int {
	if s.cfg.RetryBudget > 0 {
		return s.cfg.RetryBudget
	}
	if s.cfg.RetryCap < 1 {
		return defaultRetryCap
	}
	return s.cfg.RetryCap
}

// ack is the m-router's acknowledgement of a reliable request. Requests
// without a sequence number (fire-and-forget mode) are not
// acknowledged. An ACK addressed to the home itself self-delivers: the
// durable-mode primary sends its own membership through the reliable
// path (HostJoin), and that ladder needs settling like any other.
func (s *SCMP) ack(g packet.GroupID, req packet.Kind, to topology.NodeID, seq uint64) {
	s.ackFrom(s.home(g), g, req, to, seq)
}

// ackFrom sends the ACK of request seq from router from: the m-router
// answering a requester, or the standby answering a replication
// snapshot.
func (s *SCMP) ackFrom(from topology.NodeID, g packet.GroupID, req packet.Kind, to topology.NodeID, seq uint64) {
	if seq == 0 {
		return
	}
	s.buf = packet.AppendAck(s.buf[:0], packet.AckInfo{Req: req, Seq: seq})
	pkt := netsim.Packet{
		Kind:    packet.Ack,
		Group:   g,
		Src:     from,
		Dst:     to,
		Payload: s.buf,
		Size:    packet.ControlSize,
	}
	s.net.SendUnicast(from, &pkt)
}

// durableMode reports whether membership acknowledgements are chained
// to replication: a hot standby is receiving snapshots over a reliable
// channel and has not yet been promoted.
func (s *SCMP) durableMode() bool {
	return s.cfg.Standby >= 0 && s.cfg.AckTimeout > 0 && s.epoch == 0
}

// ackDurable acknowledges a membership request — immediately when no
// hot standby is in play, else only once the standby has confirmed a
// replica snapshot reflecting the operation (flushAckQueue). Deferring
// the ACK chains the two reliability legs: the member's retransmission
// ladder stays alive until the operation is durable at the standby, so
// a primary death inside the replication window leaves a live ladder
// that re-lands the operation on the promoted standby — instead of an
// acknowledged member silently missing from the rebuilt trees.
func (s *SCMP) ackDurable(g packet.GroupID, req packet.Kind, to topology.NodeID, seq uint64) {
	gs := s.groups[g]
	if seq == 0 || !s.durableMode() || gs == nil {
		// gs == nil: a LEAVE for a group this m-router never built —
		// nothing was replicated, nothing to wait for.
		s.ack(g, req, to, seq)
		return
	}
	gs.ackQueue = append(gs.ackQueue, deferredAck{kind: req, to: to, seq: seq})
}

// flushAckQueue releases the group's deferred membership ACKs after the
// standby acknowledged a replica snapshot. Snapshots carry the full
// member set, so confirming the newest one confirms every operation
// queued before it.
func (s *SCMP) flushAckQueue(g packet.GroupID) {
	gs := s.groups[g]
	if gs == nil || len(gs.ackQueue) == 0 {
		return
	}
	q := gs.ackQueue
	gs.ackQueue = nil
	for _, d := range q {
		s.ack(g, d.kind, d.to, d.seq)
	}
}

// handleAck matches an ACK against the node's pending request and, on a
// match, cancels the retransmission timer.
func (s *SCMP) handleAck(node topology.NodeID, pkt *netsim.Packet) {
	a, err := packet.DecodeAck(pkt.Payload) // only a malformed ACK allocates: its error
	if err != nil {
		return
	}
	key := pendingKey{node, pkt.Group}
	if a.Req == packet.Replicate {
		key = replKey(pkt.Group)
	}
	i, ok := s.slots[key]
	if !ok || !s.reqs[i].acked(a.Req, a.Seq) {
		return // reply to a superseded request
	}
	// A parked slot is resolved too: the m-router did process the
	// operation, its reply just lost the race with the park. Without this,
	// a topology whose control round trip exceeds the whole backoff ladder
	// livelocks — every ladder parks before its ACK returns.
	wasParked, kind := s.reqs[i].wasParked, s.reqs[i].kind
	s.releaseReq(i)
	if wasParked {
		s.net.Metrics.OnParkRecover()
	}
	if kind == packet.Replicate {
		s.flushAckQueue(key.g)
	}
}

// --- soft-state tree refresh -------------------------------------------

// armRefresh starts the group's periodic redistribution timer if
// refresh is enabled, the instance is not quiesced and the timer is not
// already running.
func (s *SCMP) armRefresh(g packet.GroupID, gs *groupState) {
	if s.cfg.RefreshInterval <= 0 || s.quiet || gs.refresh != (des.Timer{}) {
		return
	}
	gs.refresh = s.net.Sched.AtTimer(s.net.Now()+des.Time(s.cfg.RefreshInterval), s, tRefresh, 0, int32(g))
}

// refreshGroup is one soft-state tick: retry deferred grafts, bump the
// version, redistribute the whole TREE (idempotent at in-sync routers,
// corrective at diverged ones), and re-arm. A group whose tree has
// emptied and owes no deferred grafts lets its timer die — the next
// membership change re-arms it — so Network.Run can drain.
func (s *SCMP) refreshGroup(g packet.GroupID, gs *groupState) {
	tree := gs.dcdm.Tree()
	if tree.MemberCount() == 0 && tree.Size() == 1 && len(gs.deferred) == 0 {
		return
	}
	if s.cfg.RefreshSuppress && len(gs.deferred) == 0 &&
		s.net.Now()-gs.lastChange < des.Time(s.cfg.RefreshInterval) {
		// Refresh-storm suppression: the entry changed within the last
		// interval, so the distribution that accompanied the change
		// already reconverged any diverged router — this tick would be
		// a redundant TREE storm. Skip it but keep the timer alive.
		s.net.Metrics.OnRefreshSkip()
		s.armRefresh(g, gs)
		return
	}
	if s.regraftDeferred(g, gs) {
		s.syncMRouterEntry(g, gs)
	}
	gs.version++
	s.distributeTree(g, gs)
	s.armRefresh(g, gs)
}

// Quiesce cancels SCMP's self-sustaining timers — armed refresh ticks
// and in-flight retransmission backoffs — and keeps them off: until the
// next external input (HostJoin, HostLeave, Failover, or a link or node
// fault), no refresh is armed and a request that exhausts its ladder is
// released rather than parked. Every timer chain left is then finite,
// so a harness can RunUntil its measurement deadline, Quiesce, then Run,
// and the Run returns once the service backlog and in-flight packets
// have drained.
func (s *SCMP) Quiesce() {
	s.quiet = true
	for _, gs := range s.groups {
		s.stopRefresh(gs)
	}
	s.dropSlots(func(*reqSlot) bool { return true })
}

// stopRefresh cancels the group's armed refresh tick, if any.
func (s *SCMP) stopRefresh(gs *groupState) {
	s.net.Sched.Stop(gs.refresh)
	gs.refresh = des.Timer{}
}

// --- fault reaction (netsim.FaultListener) ------------------------------

// LinkDown reacts to a link failure: local repair at both endpoints,
// over the routing store netsim has already reconverged.
func (s *SCMP) LinkDown(u, v topology.NodeID) {
	s.quiet = false
	s.rebase()
	if s.cfg.DisableRepair {
		return
	}
	s.repairEndpoint(u, v)
	s.repairEndpoint(v, u)
}

// LinkUp reacts to a link heal: with paths restored, retry every
// deferred graft.
func (s *SCMP) LinkUp(u, v topology.NodeID) {
	s.quiet = false
	s.rebase()
	if s.cfg.DisableRepair {
		return
	}
	s.healGroups()
}

// NodeDown reacts to a router crash: the router's protocol state and
// pending requests die with it unconditionally; with repair enabled its
// neighbours additionally treat every adjacent link as failed.
func (s *SCMP) NodeDown(n topology.NodeID) {
	s.quiet = false
	s.entries[n] = nil
	s.dropSlots(func(r *reqSlot) bool { return r.key.node == n })
	s.rebase()
	if s.cfg.DisableRepair {
		return
	}
	for _, l := range s.net.G.Neighbors(n) {
		s.repairEndpoint(l.To, n)
	}
}

// NodeUp reacts to a router restart: retry deferred grafts. The
// restarted router itself re-learns its memberships from the
// ground-truth re-report netsim issues right after this callback.
func (s *SCMP) NodeUp(n topology.NodeID) {
	s.quiet = false
	s.rebase()
	if s.cfg.DisableRepair {
		return
	}
	s.healGroups()
}

// rebase follows a topology change into every group's delay bound:
// netsim has invalidated the routing store the DCDM engines read, so
// their member unicast delays moved under them. Every fault handler
// runs it before its repair guard — DisableRepair turns off the
// reaction, not the m-router's knowledge of the topology.
func (s *SCMP) rebase() {
	for _, gs := range s.groups {
		gs.dcdm.Rebase()
	}
}

// repairEndpoint is local repair at node after its link toward dead
// failed: the branch toward dead is dropped from the downstream set
// (that subtree re-homes itself from its own side), and if dead was the
// upstream, node becomes an orphan — it keeps forwarding to its intact
// downstream but asks the m-router for a re-graft with a reliable
// REJOIN naming itself and the dead neighbour.
func (s *SCMP) repairEndpoint(node, dead topology.NodeID) {
	if f := s.net.Faults(); f != nil && f.NodeIsDown(node) {
		return // a crashed router repairs nothing
	}
	byGroup := s.entries[node]
	for _, g := range sortedGroups(byGroup) {
		e := byGroup[g]
		if !e.OnTree {
			continue
		}
		e.RemoveDownstream(dead)
		if e.Upstream != dead {
			continue
		}
		e.Upstream = netsim.NoUpstream
		if !e.repairing {
			e.repairing = true
			e.repairT0 = s.net.Now()
		}
		s.buf = packet.AppendRejoin(s.buf[:0], packet.RejoinInfo{Detached: node, Dead: dead})
		s.sendReliable(node, g, packet.Rejoin, s.buf)
	}
}

// mrouterRejoin processes a REJOIN at the m-router: prune the detached
// subtree from the group's tree copy, re-graft the stranded members
// over the healthy topology, and redistribute. Members with no path to
// the m-router are deferred for the refresh tick / next heal. If the
// requesting router ended up off the re-grafted tree (an orphaned
// relay), a directed FLUSH dismantles its stale subtree state.
func (s *SCMP) mrouterRejoin(g packet.GroupID, info packet.RejoinInfo) {
	gs := s.groups[g]
	if gs == nil {
		return
	}
	gs.lastChange = s.net.Now()
	home := s.home(g)
	tree := gs.dcdm.Tree()
	// A dead router takes its whole subtree down; a dead link only the
	// requester's side. The m-router has the complete topology (§II-A),
	// so it can tell which case this is.
	detachAt := info.Detached
	if f := s.net.Faults(); f != nil && f.NodeIsDown(info.Dead) && info.Dead != home {
		detachAt = info.Dead
	}
	if detachAt != home && tree.OnTree(detachAt) {
		for _, m := range gs.dcdm.DetachSubtree(detachAt) {
			gs.deferMember(m)
		}
	}
	s.regraftDeferred(g, gs)
	s.syncMRouterEntry(g, gs)
	gs.version++
	s.distributeTree(g, gs)
	if !tree.OnTree(info.Detached) {
		s.net.SendUnicast(home, &netsim.Packet{
			Kind:    packet.Flush,
			Group:   g,
			Src:     home,
			Dst:     info.Detached,
			Version: gs.version,
			Size:    packet.ControlSize,
		})
	}
	s.armRefresh(g, gs)
}

// regraftDeferred grafts every deferred member that is reachable again,
// reporting whether the tree changed. Distribution is the caller's job.
func (s *SCMP) regraftDeferred(g packet.GroupID, gs *groupState) bool {
	if len(gs.deferred) == 0 {
		return false
	}
	home := s.home(g)
	changed := false
	for _, m := range topology.SortedNodes(gs.deferred) {
		if !s.net.Delay.Row(home).Reachable(m) {
			continue
		}
		delete(gs.deferred, m)
		gs.dcdm.Join(m)
		changed = true
	}
	return changed
}

// healGroups retries deferred grafts for every group after a topology
// heal and redistributes the trees that changed.
func (s *SCMP) healGroups() {
	for _, g := range sortedGroups(s.groups) {
		gs := s.groups[g]
		if s.regraftDeferred(g, gs) {
			gs.lastChange = s.net.Now()
			s.syncMRouterEntry(g, gs)
			gs.version++
			s.distributeTree(g, gs)
			s.armRefresh(g, gs)
		}
	}
}

// recordRecovery closes a router's repair episode when it adopts a new
// upstream, feeding the recovery-time metric.
func (s *SCMP) recordRecovery(e *entry) {
	if !e.repairing {
		return
	}
	e.repairing = false
	s.net.Metrics.OnRecovery(float64(s.net.Now() - e.repairT0))
}

// sortedGroups returns the group ids keying m in ascending order, for
// deterministic iteration wherever group processing sends packets.
func sortedGroups[V any](m map[packet.GroupID]V) []packet.GroupID {
	out := make([]packet.GroupID, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}
