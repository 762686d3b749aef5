// Package core implements SCMP, the Service-Centric Multicast Protocol —
// the paper's primary contribution (§II–III).
//
// One powerful router per domain, the m-router, holds the complete
// topology and group membership. Designated routers unicast JOIN/LEAVE
// messages to it; it updates a delay-constrained minimum-cost shared
// tree (the DCDM algorithm) and installs the tree in the network with
// self-routing TREE packets (whole subtree, recursive format) or BRANCH
// packets (single new path). The tree is bi-directional: on-tree sources
// send straight along it; off-tree sources unicast-encapsulate data to
// the m-router, which decapsulates and forwards down the tree.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"scmp/internal/des"
	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/session"
	"scmp/internal/topology"
)

// entry is one multicast routing entry: the shared-tree triple and
// local-interface flags (netsim.TreeEntry) plus the distribution
// version used to discard stale self-routing packets.
type entry struct {
	netsim.TreeEntry
	version uint64
	// lastSeq records the highest data sequence forwarded per source —
	// the shared-tree analog of an RPF check. On a consistent tree each
	// router sees every (source, seq) exactly once, so the filter never
	// drops; when churn plus lost prune distributions leave stale
	// downstream pointers that close a forwarding cycle, the second
	// visit of a packet to any router on the cycle is suppressed here,
	// turning an infinite packet storm into at most one extra traversal.
	// One pair per source, ascending by source.
	lastSeq []srcSeq
	// repairing is set when this router's upstream tree link died and a
	// REJOIN is in flight; repairT0 timestamps the failure so the
	// recovery time can be recorded when a new upstream is adopted.
	repairing bool
	repairT0  des.Time
}

func newEntry() *entry {
	return &entry{TreeEntry: netsim.TreeEntry{Upstream: netsim.NoUpstream}}
}

// srcSeq is one source's pair in an entry's duplicate filter.
type srcSeq struct {
	src  topology.NodeID
	last uint64
}

// newSeq reports whether seq is above the highest seq forwarded from src
// (any seq is, from a new source) and records it when it is. It binary
// searches lastSeq, then updates the source's pair or inserts it in order.
func (e *entry) newSeq(src topology.NodeID, seq uint64) bool {
	ps, i := e.lastSeq, 0
	for n := len(ps); n > 1; n -= n / 2 {
		if ps[i+n/2].src <= src {
			i += n / 2
		}
	}
	if i < len(ps) && ps[i].src == src {
		if seq <= ps[i].last {
			return false
		}
		ps[i].last = seq
		return true
	}
	if i < len(ps) && ps[i].src < src {
		i++
	}
	e.lastSeq = slices.Insert(ps, i, srcSeq{src, seq}) // allocates once per source; the array is kept
	return true
}

// groupState is the m-router's per-group state: the DCDM tree, the
// monotonically increasing distribution version, and the accounting
// session the group's traffic is charged to (§II-C).
type groupState struct {
	dcdm    *mtree.DCDM
	version uint64
	session session.SessionID
	// refresh is the armed soft-state redistribution timer (the zero
	// Timer when idle or refresh is disabled).
	refresh des.Timer
	// deferred holds members the m-router could not graft because the
	// faulted topology has no path to them; they are retried on every
	// refresh tick and topology heal. It stays nil until the first one.
	deferred netsim.NodeSet
	// lastChange timestamps the group's most recent membership or
	// repair change (with its accompanying distribution); the
	// refresh-suppression heuristic compares it against the refresh
	// interval. Refresh ticks themselves do not update it.
	lastChange des.Time
	// ackQueue holds membership acknowledgements deferred until the hot
	// standby confirms a replica snapshot covering them (ackDurable).
	ackQueue []deferredAck
}

// deferredAck is one membership acknowledgement waiting on replication.
type deferredAck struct {
	kind packet.Kind
	to   topology.NodeID
	seq  uint64
}

// deferMember records m as deferred in a network of n routers.
func (gs *groupState) deferMember(m topology.NodeID, n int) {
	if gs.deferred == nil {
		gs.deferred = netsim.NewNodeSet(n)
	}
	gs.deferred.Set(m)
}

func (gs *groupState) undefer(m topology.NodeID) {
	if gs.deferred != nil {
		gs.deferred.Clear(m)
	}
}

// Config parameterises an SCMP domain.
type Config struct {
	// MRouter is the m-router's node. Its address is known to every
	// router in the domain in advance (configuration file), per §II-D.
	MRouter topology.NodeID
	// Kappa is DCDM's delay-constraint multiplier (1 = tightest;
	// +Inf = loosest). NaN and values below 1 are rejected; 0 means 1.
	Kappa float64
	// DelayBudget, when positive, imposes an absolute QoS bound on every
	// member's multicast delay (the paper's "QoS constraint on maximum
	// end-to-end delay"), overriding Kappa. Members that cannot meet it
	// are served best-effort over their shortest-delay path.
	DelayBudget float64
	// ServiceTime is how long one control request (a JOIN or LEAVE,
	// including the tree computation) occupies one of the m-router's
	// processors (§II-B). Zero — the default — makes control processing
	// instantaneous.
	ServiceTime float64
	// Processors is the m-router's parallel service capacity; 0 means
	// 1. Only meaningful with a ServiceTime.
	Processors int
	// MRouters optionally lists several m-routers for the domain (§II-A:
	// "An ISP may own more than one m-routers in the Internet for
	// serving its customers in different geographic regions"; "our
	// approach can be easily extended to multiple m-routers per
	// domain"). When non-empty it overrides MRouter; each group is
	// homed on MRouters[group mod len(MRouters)], a static published
	// assignment every router's configuration file carries. Standby
	// failover is only supported in single-m-router mode.
	MRouters []topology.NodeID
	// AckTimeout, when positive, makes JOIN/LEAVE/REJOIN reliable: the
	// m-router acknowledges each request with an ACK echoing its
	// sequence number, and the sender retransmits unacknowledged
	// requests with exponential backoff (AckTimeout, 2x, 4x, ...). Zero
	// — the default — keeps the original fire-and-forget signalling, so
	// every fault-free run is unchanged.
	AckTimeout float64
	// RetryCap bounds the retransmissions per reliable request; 0 means
	// the default of 5. Only meaningful with AckTimeout.
	RetryCap int
	// RefreshInterval, when positive, makes the m-router periodically
	// redistribute each active group's TREE packet (soft-state refresh):
	// any router whose entry diverged — lost installation, missed flush
	// — reconverges within one interval. Idempotent for routers already
	// in sync. Zero disables refresh.
	RefreshInterval float64
	// DisableRepair turns off the fault-driven local repair reaction
	// (REJOIN on upstream loss, re-grafts on a heal); the chaos
	// experiment's ablation arm. Faults still drop packets and kill links
	// — the protocol just no longer reacts. It does not blind the
	// m-router: its DCDM engines read the network's routing store, which
	// reconverges on every fault, so joins after a fault are grafted
	// over post-fault distances either way.
	DisableRepair bool
	// Standby optionally names a secondary m-router (§V: "a hot standby
	// system, in which there is a secondary m-router concurrently
	// running with the primary"). The primary replicates membership
	// changes to it; Failover promotes it. A non-positive value (the
	// zero value included) disables the feature, so node 0 cannot serve
	// as the standby — place the m-routers elsewhere if you need one.
	Standby topology.NodeID
	// AdmitLimit, when positive, bounds the m-router's pending
	// control-operation queue: a JOIN arriving while the service
	// backlog has reached the limit is shed — refused with a NACK
	// carrying a retry-after hint (newest JOINs shed first; LEAVE and
	// REJOIN are always admitted, so departures and repairs drain the
	// tree even under overload). Only meaningful with a ServiceTime:
	// instantaneous control processing never has a backlog. Zero — the
	// default — admits everything, byte-identical to legacy.
	AdmitLimit int
	// RetryBudget, when positive, replaces RetryCap as the bound on a
	// reliable request's retransmission ladder and changes what happens
	// at exhaustion: instead of silently dropping the request, the
	// sender parks it — a degraded state holding one deferred
	// re-attempt timer (the refresh interval, or the next backoff step
	// when refresh is off) in place of the exponential ladder. Zero —
	// the default — keeps the legacy give-up behaviour.
	RetryBudget int
	// RefreshSuppress, when set, skips the soft-state TREE
	// redistribution for groups whose entry changed within the last
	// RefreshInterval: the distribution that accompanied the change
	// already reconverged any diverged router, so the tick would be a
	// redundant packet storm under churn. Groups owing deferred grafts
	// always refresh. Off by default.
	RefreshSuppress bool
}

// SCMP is the protocol instance managing every router in a domain.
type SCMP struct {
	cfg    Config
	homes  []topology.NodeID // the m-router(s) currently providing service
	net    *netsim.Network
	groups map[packet.GroupID]*groupState
	// entries is indexed by node id (allocated in Attach once the
	// topology size is known): the per-hop data path reaches a router's
	// state with one slice index and one small per-group map lookup.
	entries []map[packet.GroupID]*entry
	// replica is the standby's copy of the membership database, fed by
	// REPLICATE packets from the primary: one member set per group,
	// overwritten in place by each snapshot.
	replica map[packet.GroupID]netsim.NodeSet
	acct    *session.Manager
	service *serviceCenter
	// epoch counts failovers; distribution versions encode it in their
	// high 32 bits so entries installed before a failover are never
	// trusted as a source's on-tree fast path afterwards.
	epoch uint64
	// quiet is set by Quiesce and cleared by the next external input:
	// while it holds, no refresh is armed and no exhausted request parks.
	quiet bool
	// noBranch forces whole-tree TREE packets even for pure grafts: the
	// BRANCH-optimisation ablation, which only core's tests switch on.
	noBranch bool
	// slots maps each (requester, group) to its outstanding reliable
	// control request in reqs, on its retry ladder or parked
	// (repair.go); released slots wait on freeReqs for reuse. reqSeq
	// numbers the transmissions so a late ACK for a superseded request is
	// ignored.
	slots    map[pendingKey]int32
	reqs     []reqSlot
	freeReqs []int32
	reqSeq   uint64
	// ctlSeen records, per (requester, group), the highest request
	// sequence the m-router has accepted — the ordering guard against a
	// retransmitted copy of a superseded operation arriving after its
	// successor and rolling the membership back (repair.go staleCtl).
	ctlSeen map[pendingKey]uint64
	// replSeen is the standby-side equivalent for replication: the
	// highest snapshot sequence applied per group, so a straggling copy
	// of a superseded snapshot cannot overwrite a newer replica.
	replSeen map[packet.GroupID]uint64
	// buf, path and kids are scratch for outgoing payloads and the
	// paths and subpackets they are built from. Sends copy the payload
	// into the in-flight packet, so one buffer serves every send.
	buf  []byte
	path []topology.NodeID
	kids []packet.ChildPayload
}

var _ netsim.Protocol = (*SCMP)(nil)

// New returns an SCMP instance; attach it by passing it to netsim.New.
// It panics with Validate's error when cfg breaks a rule that needs no
// graph; Attach checks the rest.
func New(cfg Config) *SCMP {
	if cfg.Kappa == 0 {
		cfg.Kappa = 1
	}
	if cfg.Standby <= 0 {
		cfg.Standby = -1 // disabled
	}
	if err := cfg.Validate(nil); err != nil {
		panic("core: " + err.Error())
	}
	homes := slices.Clone(cfg.homes())
	cfg.MRouter = homes[0]
	return &SCMP{
		cfg:      cfg,
		homes:    homes,
		groups:   make(map[packet.GroupID]*groupState),
		replica:  make(map[packet.GroupID]netsim.NodeSet),
		slots:    make(map[pendingKey]int32),
		ctlSeen:  make(map[pendingKey]uint64),
		replSeen: make(map[packet.GroupID]uint64),
	}
}

// Validate reports the first rule c breaks, nil when it breaks none.
// Kappa 0 (meaning 1), a non-positive Standby (disabled) and a zero
// count (its default, or off) are valid, as New reads them. With a nil
// g only the rules that need no graph are checked; with g, the router
// ids are checked against it too.
func (c Config) Validate(g *topology.Graph) error {
	standby, homes := c.Standby > 0, c.homes()
	for i, v := range [...]float64{c.DelayBudget, c.AckTimeout, c.ServiceTime, c.RefreshInterval} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("%s %g is not finite and >= 0", [...]string{"DelayBudget", "AckTimeout", "ServiceTime", "RefreshInterval"}[i], v)
		}
	}
	for i, v := range [...]int{c.Processors, c.RetryCap, c.AdmitLimit, c.RetryBudget} {
		if v < 0 {
			return fmt.Errorf("%s %d is negative", [...]string{"Processors", "RetryCap", "AdmitLimit", "RetryBudget"}[i], v)
		}
	}
	switch {
	case math.IsNaN(c.Kappa) || c.Kappa != 0 && c.Kappa < 1:
		return fmt.Errorf("Kappa %g is not 0 (meaning 1), >= 1 or +Inf", c.Kappa)
	case standby && len(c.MRouters) > 0:
		return errors.New("hot standby requires single-m-router mode")
	case standby && c.Standby == homes[0]:
		return errors.New("standby must differ from the primary m-router")
	}
	for i, h := range homes {
		if slices.Contains(homes[:i], h) {
			return fmt.Errorf("duplicate m-router %d", h)
		}
		if g != nil && (h < 0 || int(h) >= g.N()) {
			return fmt.Errorf("m-router %d out of range (%d routers)", h, g.N())
		}
	}
	if g != nil && standby && int(c.Standby) >= g.N() {
		return fmt.Errorf("standby %d out of range (%d routers)", c.Standby, g.N())
	}
	return nil
}

// homes returns the m-routers c configures, in group-assignment order:
// MRouters, else the one m-router.
func (c Config) homes() []topology.NodeID {
	if len(c.MRouters) > 0 {
		return c.MRouters
	}
	return []topology.NodeID{c.MRouter}
}

// home returns the m-router serving group g: the published static
// assignment MRouters[g mod len] (a single-m-router domain always maps
// to that m-router).
func (s *SCMP) home(g packet.GroupID) topology.NodeID {
	if len(s.homes) == 1 {
		return s.homes[0] // the per-hop case: skip the division
	}
	return s.homes[int(g)%len(s.homes)]
}

// isHome reports whether node is the m-router serving g.
func (s *SCMP) isHome(node topology.NodeID, g packet.GroupID) bool {
	return node == s.home(g)
}

// Attach implements netsim.Protocol: it verifies the m-router exists.
// The m-router "possesses all the information on the network": its DCDM
// engines read the network's routing store (netsim.Network.Delay, .Cost).
func (s *SCMP) Attach(n *netsim.Network) {
	if s.net != nil {
		panic("core: SCMP attached twice")
	}
	if err := s.cfg.Validate(n.G); err != nil {
		panic("core: " + err.Error())
	}
	s.net = n
	s.entries = make([]map[packet.GroupID]*entry, n.G.N())
	s.acct = session.NewManager(n.Sched)
	s.service = newServiceCenter(n.Sched, s, des.Time(s.cfg.ServiceTime), s.cfg.Processors)
}

// MRouter returns the node currently acting as the (first) m-router —
// the standby after a failover.
func (s *SCMP) MRouter() topology.NodeID { return s.homes[0] }

// Accounting exposes the m-router's service database (§II-C): adopted
// groups, membership on-time tracking, session records.
func (s *SCMP) Accounting() *session.Manager { return s.acct }

// GroupTree returns the m-router's current tree for g (nil if the group
// has no state yet). Read-only.
func (s *SCMP) GroupTree(g packet.GroupID) *mtree.Tree {
	gs := s.groups[g]
	if gs == nil {
		return nil
	}
	return gs.dcdm.Tree()
}

func (s *SCMP) group(g packet.GroupID) *groupState {
	gs := s.groups[g]
	if gs == nil {
		gs = &groupState{dcdm: mtree.NewDCDM(s.net.G, s.home(g), s.cfg.Kappa, s.net.Delay, s.net.Cost)}
		if s.cfg.DelayBudget > 0 {
			gs.dcdm.SetQoSBudget(s.cfg.DelayBudget)
		}
		// A group created after a failover starts its version stream in
		// the current epoch (pre-failover groups get this in Failover
		// itself). Without the stamp, its distributions would carry
		// epoch-0 versions: stale pre-failover entries could outrank
		// them, and SendData's epoch check would force every member
		// source into the encapsulation fallback forever.
		gs.version = s.epoch * failoverEpoch
		s.groups[g] = gs
	}
	return gs
}

func (s *SCMP) entry(node topology.NodeID, g packet.GroupID) *entry {
	byGroup := s.entries[node]
	if byGroup == nil {
		byGroup = make(map[packet.GroupID]*entry)
		s.entries[node] = byGroup
	}
	e := byGroup[g]
	if e == nil {
		e = newEntry()
		byGroup[g] = e
	}
	return e
}

func (s *SCMP) peekEntry(node topology.NodeID, g packet.GroupID) *entry {
	return s.entries[node][g]
}

// EntryView is a read-only snapshot of a router's multicast routing
// entry, for tests and tooling.
type EntryView struct {
	OnTree     bool
	Upstream   topology.NodeID
	Downstream []topology.NodeID
	HasLocal   bool
}

// Entry returns a snapshot of node's routing entry for g; ok is false
// when the router holds no state for the group.
func (s *SCMP) Entry(node topology.NodeID, g packet.GroupID) (EntryView, bool) {
	e := s.peekEntry(node, g)
	if e == nil {
		return EntryView{}, false
	}
	return EntryView{
		OnTree:     e.OnTree,
		Upstream:   e.Upstream,
		Downstream: append([]topology.NodeID(nil), e.Downstream()...),
		HasLocal:   e.HasLocal,
	}, true
}

// StateEntries returns the number of live multicast routing entries a
// router holds — one per group it is on the tree of (or has members
// for). SCMP's per-router state scales with group count only, never
// with source count; contrast the SPT-based protocols (§I: SPT routing
// "introduces the scalability problem ... since routers need to store
// routing information for each (source, group) pair").
func (s *SCMP) StateEntries(node topology.NodeID) int {
	return netsim.LiveEntries(s.entries[node])
}

// --- membership (§III-B, §III-C) --------------------------------------

// HostJoin implements the member joining procedure at the DR.
func (s *SCMP) HostJoin(node topology.NodeID, g packet.GroupID) {
	s.quiet = false
	if s.isHome(node, g) {
		e := s.entry(node, g)
		e.OnTree, e.HasLocal = true, true
		if s.durableMode() {
			// The m-router's own membership must survive the m-router: in
			// durable mode the JOIN goes through the reliable path even
			// though it self-delivers, so the ladder stays alive until the
			// operation is replicated — and, across a failover, re-resolves
			// the home and re-lands on the promoted standby.
			s.sendReliable(node, g, packet.Join, nil)
			return
		}
		// The m-router is its own DR: no JOIN message crosses the network.
		s.mrouterJoin(node, g)
		return
	}
	e := s.entry(node, g)
	if e.OnTree {
		// Already on the tree as a relay: mark the interface; the paper
		// still sends a JOIN for accounting/billing when this is the
		// first local interface.
		if !e.HasLocal {
			e.HasLocal = true
			s.sendReliable(node, g, packet.Join, nil)
		}
		return
	}
	// Off tree: remember the interface for when the TREE/BRANCH packet
	// arrives, and ask the m-router to extend the tree.
	e.PendingLocal = true
	s.sendReliable(node, g, packet.Join, nil)
}

// HostLeave implements the member leaving procedure at the DR.
func (s *SCMP) HostLeave(node topology.NodeID, g packet.GroupID) {
	s.quiet = false
	e := s.peekEntry(node, g)
	if e == nil {
		return
	}
	e.HasLocal = false
	e.PendingLocal = false
	if s.isHome(node, g) {
		if s.durableMode() {
			// Symmetric with HostJoin: the primary's own LEAVE rides the
			// reliable path so a failover cannot resurrect it from a stale
			// replica snapshot — the live ladder re-lands the LEAVE.
			s.sendReliable(node, g, packet.Leave, nil)
			return
		}
		s.mrouterLeave(node, g)
		return
	}
	// Always tell the m-router (accounting); additionally prune when the
	// DR became a leaf.
	s.sendReliable(node, g, packet.Leave, nil)
	if e.OnTree && len(e.Downstream()) == 0 {
		s.sendPrune(node, g, e)
	}
}

// sendPrune tears this router's branch: it forgets its entry and tells
// its upstream.
func (s *SCMP) sendPrune(node topology.NodeID, g packet.GroupID, e *entry) {
	up := e.Upstream
	e.OnTree = false
	e.Upstream = netsim.NoUpstream
	if up == netsim.NoUpstream {
		return
	}
	s.net.SendLink(node, up, &netsim.Packet{
		Kind:    packet.Prune,
		Group:   g,
		Src:     node,
		Version: e.version, // stamps the sender's epoch; see handlePrune
		Size:    packet.ControlSize,
	})
}

// --- m-router logic (§III-D, §III-E) -----------------------------------

// mrouterJoin runs DCDM for a join, records it in the service database,
// replicates it to the standby, and distributes the tree change.
func (s *SCMP) mrouterJoin(member topology.NodeID, g packet.GroupID) {
	gs := s.group(g)
	gs.lastChange = s.net.Now()
	defer s.armRefresh(g, gs)
	if gs.session == 0 {
		s.acct.Adopt(g) // once per group: a group with a session is already adopted
		if id, err := s.acct.StartSession(g); err == nil {
			gs.session = id
		}
	}
	_ = s.acct.MemberJoined(g, member)
	// Replicate on the way out: the snapshot must reflect the member set
	// after this join lands (grafted or deferred).
	defer s.replicate(g, gs)
	gs.undefer(member)
	if member != s.home(g) && !s.net.Delay.Row(s.home(g)).Reachable(member) {
		// The member is partitioned away from the m-router right now:
		// grafting would fail. Remember it; the refresh tick and every
		// topology heal retry the graft.
		gs.deferMember(member, s.net.G.N())
		return
	}
	res := gs.dcdm.Join(member)
	if res.Restructured {
		s.net.Metrics.OnRestructure()
	}
	s.syncMRouterEntry(g, gs)
	if res.AlreadyOn {
		// Tree unchanged — the member was already a relay. Refresh its
		// path with an (idempotent) BRANCH anyway: the DR may have been
		// flushed by a restructure and is waiting to re-home.
		gs.version++
		s.distributeBranch(g, gs, member)
		return
	}
	gs.version++
	if res.Restructured || s.noBranch {
		s.distributeTree(g, gs)
		return
	}
	s.distributeBranch(g, gs, member)
}

// mrouterLeave runs DCDM for a leave. The network-side prune is driven
// by the leaving DR's hop-by-hop PRUNE; the m-router only updates its
// own copy of the tree.
func (s *SCMP) mrouterLeave(member topology.NodeID, g packet.GroupID) {
	gs := s.groups[g]
	if gs == nil {
		return
	}
	_ = s.acct.MemberLeft(g, member)
	gs.undefer(member)
	gs.lastChange = s.net.Now()
	gs.dcdm.Leave(member)
	s.syncMRouterEntry(g, gs)
	s.replicate(g, gs) // snapshot of the post-leave member set
}

// replicate streams the group's membership to the hot-standby secondary
// (§V): "a secondary m-router concurrently running with the primary".
// The payload is a full member-set snapshot, not a join/leave delta:
// snapshots are idempotent and a newer one legitimately supersedes an
// older one, which is exactly the reliable-signalling slot contract
// (one outstanding request per (node, group), newest wins) — so with an
// AckTimeout configured the snapshot rides the ACK/retransmit ladder
// and the replica converges even when the loss model eats individual
// copies. A lost delta has no such backstop: the member it carried
// would silently vanish from the replica, and a failover would rebuild
// the trees without it.
func (s *SCMP) replicate(g packet.GroupID, gs *groupState) {
	if s.cfg.Standby < 0 || s.epoch > 0 {
		return // no standby, or the standby itself is already active
	}
	members := append(s.path[:0], gs.dcdm.Tree().Members()...)
	// Deferred (currently partitioned) members are members too: a
	// failover must not forget them just because grafting is waiting on
	// a topology heal.
	members = gs.deferred.AppendIDs(members)
	slices.Sort(members)
	s.path = members
	s.buf = packet.AppendBranch(s.buf[:0], members) // the member-set snapshot layout
	s.sendReliable(s.homes[0], g, packet.Replicate, s.buf)
}

// handleReplicate installs a member-set snapshot in the standby's
// replica database and, for a reliable (sequenced) snapshot, returns
// the ACK that settles the primary's retransmission ladder. replSeen
// keeps a reordered older snapshot from overwriting a newer one.
func (s *SCMP) handleReplicate(pkt *netsim.Packet) {
	members, err := packet.DecodeBranchTo(pkt.Payload, s.path[:0]) // the member-set snapshot layout
	if err != nil {
		return
	}
	s.path = members
	for _, m := range members {
		if m < 0 || int(m) >= s.net.G.N() {
			return // corrupt snapshot: names no router
		}
	}
	if pkt.Seq != 0 {
		if pkt.Seq < s.replSeen[pkt.Group] {
			return // stale copy of a superseded snapshot
		}
		s.replSeen[pkt.Group] = pkt.Seq
		s.ackFrom(s.cfg.Standby, pkt.Group, packet.Replicate, pkt.Src, pkt.Seq)
	}
	set := s.replica[pkt.Group]
	if set == nil {
		set = netsim.NewNodeSet(s.net.G.N())
		s.replica[pkt.Group] = set
	}
	clear(set)
	for _, m := range members {
		set.Set(m)
	}
}

// ReplicaMembers returns the standby's replicated member set for g,
// sorted — the state a failover will rebuild trees from.
func (s *SCMP) ReplicaMembers(g packet.GroupID) []topology.NodeID {
	set := s.replica[g]
	return set.AppendIDs(make([]topology.NodeID, 0, set.Count()))
}

// failoverEpoch separates pre- and post-failover distribution versions
// so every packet from the new m-router outranks stale ones.
const failoverEpoch = uint64(1) << 32

// HasStandby reports whether a standby m-router is configured, the one
// Failover promotes.
func (s *SCMP) HasStandby() bool { return s.cfg.Standby >= 0 }

// Failover promotes the hot-standby secondary to active m-router after
// a primary failure (§V: "when the primary m-router fails, the
// secondary m-router will take over the job automatically"). The new
// m-router rebuilds every group's tree rooted at itself from the
// replicated membership and installs the trees with TREE packets;
// i-routers re-home on receipt, pruning their old branches toward the
// dead primary. Subsequent JOIN/LEAVE/encapsulated traffic flows to the
// new m-router (every router's configuration lists both addresses).
func (s *SCMP) Failover() {
	if s.cfg.Standby < 0 {
		panic("core: Failover without a configured standby")
	}
	s.quiet = false
	if s.homes[0] == s.cfg.Standby {
		return // already failed over
	}
	// The dead primary's forwarding entries die with it.
	dead := s.entries[s.homes[0]]
	for _, g := range topology.SortedKeys(dead) {
		dead[g].OnTree = false
		dead[g].SetDownstream(nil)
	}
	s.homes[0] = s.cfg.Standby
	s.epoch++
	// The failed primary's replication stream dies with it: in-flight
	// snapshot ladders (and parked re-attempts) would otherwise keep
	// retransmitting into the promoted standby forever.
	s.dropSlots(func(r *reqSlot) bool { return r.kind == packet.Replicate })
	old := s.groups
	// The old group states are discarded below, but their armed refresh
	// timers would survive them — firing forever, redistributing the
	// stale pre-failover tree, and unreachable by Quiesce (which walks
	// the new map). Kill them here.
	for _, g := range topology.SortedKeys(old) {
		s.stopRefresh(old[g])
	}
	s.groups = make(map[packet.GroupID]*groupState)
	for _, g := range topology.SortedKeys(s.replica) {
		gs := s.group(g) // rooted at the new active m-router, in this epoch
		if prev := old[g]; prev != nil {
			gs.session = prev.session // the accounting session outlives its m-router
			if prev.version >= gs.version {
				gs.version = prev.version + failoverEpoch
			}
		}
		if s.replica[g].Count() == 0 {
			continue // an emptied group keeps its session; there is no tree to build
		}
		for _, m := range s.ReplicaMembers(g) {
			if m == s.homes[0] {
				e := s.entry(m, g)
				e.OnTree, e.HasLocal = true, true
			}
			gs.dcdm.Join(m)
		}
		gs.lastChange = s.net.Now()
		s.syncMRouterEntry(g, gs)
		gs.version++
		s.distributeTree(g, gs)
		s.armRefresh(g, gs) // soft state resumes under the new primary
	}
}

// syncMRouterEntry mirrors the DCDM tree's root children into the
// m-router's own forwarding entry.
func (s *SCMP) syncMRouterEntry(g packet.GroupID, gs *groupState) {
	e := s.entry(s.home(g), g)
	e.OnTree = true
	e.Upstream = netsim.NoUpstream
	e.SetDownstream(gs.dcdm.Tree().Children(s.home(g)))
	e.version = gs.version
	commitCheck(s.home(g), gs.dcdm.Tree())
}

// distributeTree sends one self-routing TREE packet per child subtree of
// the m-router (§III-E).
func (s *SCMP) distributeTree(g packet.GroupID, gs *groupState) {
	tree := gs.dcdm.Tree()
	for _, c := range tree.Children(s.home(g)) {
		s.buf = packet.AppendTree(s.buf[:0], tree, c)
		s.net.SendLink(s.home(g), c, &netsim.Packet{
			Kind:    packet.Tree,
			Group:   g,
			Src:     s.home(g),
			Version: gs.version,
			Payload: s.buf,
			Size:    len(s.buf) + packet.TreeHeaderSize,
		})
	}
}

// distributeBranch sends a BRANCH packet carrying the tree path from the
// m-router to the new member.
func (s *SCMP) distributeBranch(g packet.GroupID, gs *groupState, member topology.NodeID) {
	path := gs.dcdm.Tree().AppendPathToRoot(s.path[:0], member) // member ... root
	s.path = path
	if len(path) == 0 {
		// Defensive: fall back to a full distribution.
		s.distributeTree(g, gs)
		return
	}
	slices.Reverse(path)
	// path = root, r1, ..., member. The packet sent to r1 carries
	// (r1, ..., member), the paper's format.
	if len(path) < 2 {
		return
	}
	s.buf = packet.AppendBranch(s.buf[:0], path[1:])
	s.net.SendLink(s.home(g), path[1], &netsim.Packet{
		Kind:    packet.Branch,
		Group:   g,
		Src:     s.home(g),
		Version: gs.version,
		Payload: s.buf,
		Size:    len(s.buf) + packet.TreeHeaderSize,
	})
}

// --- packet processing --------------------------------------------------

// HandlePacket implements netsim.Protocol.
func (s *SCMP) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	switch pkt.Kind {
	case packet.Join:
		if s.isHome(node, pkt.Group) {
			member, g, seq := pkt.Src, pkt.Group, pkt.Seq
			if s.staleCtl(member, g, seq) {
				return // superseded op's retransmission: never roll back
			}
			if !s.admitJoin(node, g, member, seq) {
				return // shed: the NACK (if any) is already on the wire
			}
			s.submit(serviceOp{kind: packet.Join, from: member, g: g, seq: seq})
		}
	case packet.Leave:
		if s.isHome(node, pkt.Group) {
			member, g, seq := pkt.Src, pkt.Group, pkt.Seq
			if s.staleCtl(member, g, seq) {
				return // superseded op's retransmission: never roll back
			}
			s.submit(serviceOp{kind: packet.Leave, from: member, g: g, seq: seq})
		}
	case packet.Rejoin:
		if s.isHome(node, pkt.Group) {
			info, err := packet.DecodeRejoin(pkt.Payload)
			if err != nil {
				return
			}
			s.submit(serviceOp{kind: packet.Rejoin, from: pkt.Src, g: pkt.Group, seq: pkt.Seq, rejoin: info})
		}
	case packet.Ack:
		if pkt.Dst == node {
			s.handleAck(node, pkt)
		}
	case packet.Nack:
		if pkt.Dst == node {
			s.handleNack(node, pkt)
		}
	case packet.Replicate:
		if node == s.cfg.Standby {
			s.handleReplicate(pkt)
		}
	case packet.Tree:
		s.handleTree(node, pkt)
	case packet.Branch:
		s.handleBranch(node, pkt)
	case packet.Prune:
		s.handlePrune(node, pkt)
	case packet.Flush:
		s.handleFlush(node, pkt)
	case packet.Data:
		s.handleData(node, pkt)
	case packet.EncapData:
		s.handleEncap(node, pkt)
	}
}

// submit hands a control operation to the m-router's compute: it runs
// now without a ServiceTime, else when the service centre serves it.
func (s *SCMP) submit(op serviceOp) {
	if !s.service.submit(op) {
		s.serve(op)
	}
}

// serve runs one control operation at the m-router and answers it.
func (s *SCMP) serve(op serviceOp) {
	switch op.kind {
	case packet.Join:
		s.mrouterJoin(op.from, op.g)
		s.ackDurable(op.g, packet.Join, op.from, op.seq)
	case packet.Leave:
		s.mrouterLeave(op.from, op.g)
		s.ackDurable(op.g, packet.Leave, op.from, op.seq)
	case packet.Rejoin:
		s.mrouterRejoin(op.g, op.rejoin)
		s.ack(op.g, packet.Rejoin, op.from, op.seq)
	}
}

// Operation codes of SCMP's typed timers (des.Scheduler.AtTimer).
const (
	tRefresh uint8 = iota // group b's soft-state refresh tick
	tRetry                // request slot a's next retransmission
	tPark                 // parked request slot a's deferred re-attempt
	tService              // the service centre's head operation completes
)

// SinkEvent dispatches SCMP's typed timers; it implements des.Sink and
// is invoked only by the scheduler.
func (s *SCMP) SinkEvent(op uint8, a, b int32, _ any, _ bool) {
	switch op {
	case tRefresh:
		g := packet.GroupID(b)
		gs := s.groups[g]
		gs.refresh = des.Timer{}
		s.refreshGroup(g, gs)
	case tRetry:
		s.retryFire(a)
	case tPark:
		s.startLadder(a)
	case tService:
		s.serve(s.service.next())
	}
}

// ParallelWindowSafe certified configurations for the withdrawn
// partitioned drive (DESIGN.md §12); there is no such drive to certify.
//
// Deprecated: compile shim for bench/sim.go, which is frozen outside
// benchmark PRs; the next benchmark PR drops the call and this method
// with it.
func (s *SCMP) ParallelWindowSafe() bool { return false }

// Name returns "SCMP".
//
// Deprecated: compile shim for bench/sim.go, which is frozen outside
// benchmark PRs; the next benchmark PR drops the call and this method
// with it.
func (s *SCMP) Name() string { return "SCMP" }

// handleTree implements the TREE packet processing algorithm (§III-E):
// adopt the sender as upstream, replace the downstream set with the
// packet's children, split the packet and forward one subpacket per
// child. Downstream routers absent from the new subtree are flushed.
func (s *SCMP) handleTree(node topology.NodeID, pkt *netsim.Packet) {
	// Split rather than decode: each child's subtree encoding is
	// embedded verbatim in the payload, so the forwarded subpackets are
	// slices of the incoming payload (byte-identical to re-encoding,
	// without materialising the Subtree or allocating new payloads).
	// SplitSubtree walks the whole payload, so corrupt packets are
	// dropped here exactly as DecodeSubtree would. The children and the
	// new downstream set go into the instance's scratch: no handler runs
	// inside another, and the sends copy what they carry.
	children, err := packet.SplitSubtree(pkt.Payload, s.kids[:0])
	s.kids = children
	if err != nil {
		return // corrupt packet: drop
	}
	e := s.entry(node, pkt.Group)
	if pkt.Version < e.version {
		return // stale distribution overtaken by a newer one
	}
	e.version = pkt.Version
	oldUp := e.Upstream
	wasOnTree := e.OnTree
	e.OnTree = true
	e.Upstream = pkt.From
	s.recordRecovery(e)
	if wasOnTree && oldUp != netsim.NoUpstream && oldUp != pkt.From {
		// Restructured: break the loop by pruning toward the old parent.
		s.net.SendLink(node, oldUp, &netsim.Packet{
			Kind:    packet.Prune,
			Group:   pkt.Group,
			Src:     node,
			Version: pkt.Version,
			Size:    packet.ControlSize,
		})
	}
	next := s.path[:0]
	for _, c := range children {
		next = append(next, c.Addr)
		s.net.SendLink(node, c.Addr, &netsim.Packet{
			Kind:    packet.Tree,
			Group:   pkt.Group,
			Src:     pkt.Src,
			Version: pkt.Version,
			Payload: c.Sub,
			Size:    len(c.Sub) + packet.TreeHeaderSize,
		})
	}
	for _, d := range e.Downstream() {
		if !slices.Contains(next, d) {
			s.net.SendLink(node, d, &netsim.Packet{
				Kind:    packet.Flush,
				Group:   pkt.Group,
				Src:     node,
				Version: pkt.Version,
				Size:    packet.ControlSize,
			})
		}
	}
	e.SetDownstream(next)
	s.path = next
	if e.PendingLocal {
		e.PendingLocal = false
		e.HasLocal = true
	}
}

// handleBranch implements BRANCH processing (§III-E): pop self off the
// head, adopt upstream if new, add the next router downstream, forward.
func (s *SCMP) handleBranch(node topology.NodeID, pkt *netsim.Packet) {
	path, err := packet.DecodeBranchTo(pkt.Payload, s.path[:0])
	if err != nil || len(path) == 0 || path[0] != node {
		return
	}
	s.path = path
	e := s.entry(node, pkt.Group)
	if pkt.Version < e.version {
		return
	}
	e.version = pkt.Version
	if !e.OnTree || e.Upstream == netsim.NoUpstream {
		// Off tree, or an orphan whose upstream link died: adopt the
		// branch as the new upstream (local repair re-homing).
		e.OnTree = true
		e.Upstream = pkt.From
		s.recordRecovery(e)
	}
	// Any router the BRANCH confirms on the tree can add the interface
	// it marked at IGMP-report time — the node may be a mid-path relay
	// whose own JOIN overlapped with this distribution.
	if e.PendingLocal {
		e.PendingLocal = false
		e.HasLocal = true
	}
	rest := path[1:]
	if len(rest) == 0 {
		return // this router is the new member's DR
	}
	e.AddDownstream(rest[0])
	s.buf = packet.AppendBranch(s.buf[:0], rest)
	s.net.SendLink(node, rest[0], &netsim.Packet{
		Kind:    packet.Branch,
		Group:   pkt.Group,
		Src:     pkt.Src,
		Version: pkt.Version,
		Payload: s.buf,
		Size:    len(s.buf) + packet.TreeHeaderSize,
	})
}

// handlePrune removes the sending child; a router left as a childless
// non-member leaf prunes itself upstream in turn (§III-C).
func (s *SCMP) handlePrune(node topology.NodeID, pkt *netsim.Packet) {
	e := s.peekEntry(node, pkt.Group)
	if e == nil || !e.OnTree {
		return
	}
	if pkt.Version>>32 < e.version>>32 {
		// A prune stamped with a pre-failover epoch arriving at a router
		// already re-homed by the new m-router's distribution is the old
		// tree tearing itself down, not this child leaving the new tree:
		// honouring it would detach a branch the new tree still routes
		// members through (seed 2679709531305543172). Within an epoch
		// version skew is legal — a leaf may lag its upstream's refresh —
		// so only cross-epoch prunes are rejected.
		return
	}
	e.RemoveDownstream(pkt.From)
	if s.isHome(node, pkt.Group) {
		return
	}
	if len(e.Downstream()) == 0 && !e.HasLocal && !e.PendingLocal {
		s.sendPrune(node, pkt.Group, e)
	}
}

// handleFlush tears down a stale branch after a restructure: the router
// forgets its entry and cascades the flush to its own downstream. A DR
// that still has local members immediately re-joins.
func (s *SCMP) handleFlush(node topology.NodeID, pkt *netsim.Packet) {
	e := s.peekEntry(node, pkt.Group)
	if e == nil || !e.OnTree {
		return
	}
	if pkt.Version < e.version {
		return // already re-homed by a newer distribution
	}
	// A hop-by-hop flush must come from this router's upstream. A
	// directed flush — unicast by the m-router to an orphaned relay that
	// local repair excluded from the re-grafted tree — is addressed to
	// the node itself and bypasses the upstream match (the orphan has
	// none to match).
	if pkt.Dst != node && pkt.From != e.Upstream {
		return
	}
	for _, d := range e.Downstream() {
		s.net.SendLink(node, d, &netsim.Packet{
			Kind:    packet.Flush,
			Group:   pkt.Group,
			Src:     node,
			Version: pkt.Version,
			Size:    packet.ControlSize,
		})
	}
	hadLocal := e.HasLocal
	e.OnTree = false
	e.Upstream = netsim.NoUpstream
	e.SetDownstream(nil)
	e.HasLocal = false
	if hadLocal {
		e.PendingLocal = true
		s.sendReliable(node, pkt.Group, packet.Join, nil)
	} else {
		// A dismantled pure relay has no members waiting: its repair
		// episode (if any) ends here without a recovery sample.
		e.repairing = false
	}
}

// --- data forwarding (§III-F) -------------------------------------------

// SendData implements netsim.Protocol: an on-tree source (or the
// m-router) sends along the bi-directional tree; an off-tree source
// encapsulates to the m-router.
func (s *SCMP) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	pkt := &netsim.Packet{
		Kind:    packet.Data,
		Group:   g,
		Src:     src,
		Seq:     seq,
		Size:    size,
		Created: s.net.Now(),
	}
	e := s.peekEntry(src, g)
	if e != nil && e.OnTree && e.version>>32 == s.epoch {
		// Record our own send in the duplicate filter: a forwarding
		// cycle through a router with a stale (diverged) entry can echo
		// the packet back here, and without this entry the source would
		// deliver its own packet to its local hosts. Interior routers
		// are already covered — their first copy seeds lastSeq.
		e.newSeq(src, seq)
		e.Forward(s.net, src, pkt, src /* nothing to exclude: use src itself */)
		return
	}
	enc := *pkt
	enc.Kind = packet.EncapData
	enc.Dst = s.home(g)
	enc.Size = size + packet.EncapHeaderSize
	s.net.SendUnicast(src, &enc)
}

// handleData implements the multicast packet forwarding procedure: if
// the packet arrived from a router in F = {upstream} ∪ downstream,
// forward it to the rest of F and deliver locally; otherwise drop it.
func (s *SCMP) handleData(node topology.NodeID, pkt *netsim.Packet) {
	e := s.peekEntry(node, pkt.Group)
	if e == nil || !e.Accepts(pkt.From) {
		s.net.DropData(node)
		return
	}
	if !e.newSeq(pkt.Src, pkt.Seq) {
		s.net.DropData(node) // duplicate: a forwarding cycle is feeding us
		return
	}
	s.recordTraffic(node, pkt.Group, pkt.Size)
	e.Forward(s.net, node, pkt, pkt.From)
	// A member source that fell back to encapsulation sees its own
	// packet come back down the tree: keep forwarding it (a subtree may
	// hang below us) but never hand a host its own transmission.
	if e.HasLocal && pkt.Src != node {
		s.net.DeliverLocal(node, pkt)
	}
}

// recordTraffic charges data crossing the m-router to the group's
// accounting session (§II-C: the m-router is "to check, track and
// record the multicast traffic in the corresponding multicast session").
func (s *SCMP) recordTraffic(node topology.NodeID, g packet.GroupID, size int) {
	if !s.isHome(node, g) {
		return
	}
	if gs := s.groups[g]; gs != nil && gs.session != 0 {
		_ = s.acct.RecordTraffic(g, gs.session, size)
	}
}

// handleEncap decapsulates data at the m-router and forwards it down the
// tree.
func (s *SCMP) handleEncap(node topology.NodeID, pkt *netsim.Packet) {
	if !s.isHome(node, pkt.Group) {
		return
	}
	e := s.peekEntry(node, pkt.Group)
	if e == nil || !e.OnTree {
		s.net.DropData(node)
		return
	}
	data := *pkt
	data.Kind = packet.Data
	data.Size = pkt.Size - packet.EncapHeaderSize
	s.recordTraffic(node, pkt.Group, data.Size)
	e.Forward(s.net, node, &data, node)
	if e.HasLocal {
		s.net.DeliverLocal(node, &data)
	}
}
