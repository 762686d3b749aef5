// Package session implements the m-router's group and session
// management database (§II-C): multicast address allocation, revocation
// and publication; session lifecycle (create, renew, expire, tear down);
// per-member on-off tracking for scheduling and accounting/billing; and
// the query interface the paper requires ("it should have abilities for
// outsiders to query proper information about multicast groups and
// sessions in the m-router").
package session

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// Common errors.
var (
	ErrExhausted     = errors.New("session: multicast address space exhausted")
	ErrUnknownGroup  = errors.New("session: unknown group")
	ErrGroupActive   = errors.New("session: group still has members")
	ErrSessionClosed = errors.New("session: session already closed")
)

// EventKind enumerates accounting-log entries.
type EventKind int

const (
	EventAllocate EventKind = iota
	EventRevoke
	EventJoin
	EventLeave
	EventSessionStart
	EventSessionEnd
)

var eventNames = map[EventKind]string{
	EventAllocate: "ALLOCATE", EventRevoke: "REVOKE",
	EventJoin: "JOIN", EventLeave: "LEAVE",
	EventSessionStart: "SESSION-START", EventSessionEnd: "SESSION-END",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one accounting record: who did what to which group and when.
type Event struct {
	At     des.Time
	Kind   EventKind
	Group  packet.GroupID
	Member topology.NodeID // -1 when not member-specific
}

// memberSpan tracks one member's on-time for billing.
type memberSpan struct {
	joinedAt des.Time
	total    des.Time // accumulated time over closed spans
	online   bool
}

// GroupInfo is the queryable state of one managed group.
type GroupInfo struct {
	Group     packet.GroupID
	Name      string
	CreatedAt des.Time
	Members   []topology.NodeID
	Sessions  []SessionID
}

// SessionID identifies a multicast session within a group.
type SessionID uint64

// SessionInfo is the queryable state of one session.
type SessionInfo struct {
	ID        SessionID
	Group     packet.GroupID
	StartedAt des.Time
	ExpiresAt des.Time // zero value: no expiry
	Active    bool
	Packets   uint64
	Bytes     uint64
}

type groupState struct {
	name      string
	createdAt des.Time
	members   map[topology.NodeID]*memberSpan
	sessions  map[SessionID]*sessionState
}

type sessionState struct {
	info SessionInfo
	exp  *des.Event
}

// Clock supplies the current time; *des.Scheduler satisfies it.
type Clock interface{ Now() des.Time }

// Manager is the m-router's service database.
type Manager struct {
	clock Clock
	// Address pool: [base, base+size).
	base, size uint32
	nextProbe  uint32
	groups     map[packet.GroupID]*groupState
	nextSess   SessionID
	log        [][]Event // the accounting log; chunk k holds logChunk(k) records
}

// logChunk is the capacity of log chunk k: 8 doubling to 1024, so an
// append never copies a stored record and a short log stays small.
func logChunk(k int) int {
	if k >= 7 { // 8<<7 == 1024; the guard also keeps the shift from overflowing
		return 1024
	}
	return 8 << k
}

// NewManager returns a manager allocating group addresses from
// [base, base+size) and timestamping with clock.
func NewManager(clock Clock, base packet.GroupID, size int) *Manager {
	if size <= 0 {
		panic("session: pool size must be positive")
	}
	return &Manager{
		clock:  clock,
		base:   uint32(base),
		size:   uint32(size),
		groups: make(map[packet.GroupID]*groupState),
	}
}

func (m *Manager) record(kind EventKind, g packet.GroupID, member topology.NodeID) {
	k := len(m.log)
	if k == 0 || len(m.log[k-1]) == cap(m.log[k-1]) {
		m.log = append(m.log, make([]Event, 0, logChunk(k)))
		k++
	}
	m.log[k-1] = append(m.log[k-1], Event{At: m.clock.Now(), Kind: kind, Group: g, Member: member})
}

// Allocate issues a fresh multicast address for a new group (§II-C:
// "issue a multicast address for a new multicast group").
func (m *Manager) Allocate(name string) (packet.GroupID, error) {
	for i := uint32(0); i < m.size; i++ {
		cand := packet.GroupID(m.base + (m.nextProbe+i)%m.size)
		if _, used := m.groups[cand]; used {
			continue
		}
		m.nextProbe = (m.nextProbe + i + 1) % m.size
		m.groups[cand] = &groupState{
			name:      name,
			createdAt: m.clock.Now(),
			members:   make(map[topology.NodeID]*memberSpan),
			sessions:  make(map[SessionID]*sessionState),
		}
		m.record(EventAllocate, cand, -1)
		return cand, nil
	}
	return 0, ErrExhausted
}

// Adopt registers a group whose address was assigned externally (e.g. a
// well-known group configured out of band) so the manager can track its
// membership and sessions. Adopting an already-managed group is a no-op.
func (m *Manager) Adopt(g packet.GroupID, name string) {
	if _, ok := m.groups[g]; ok {
		return
	}
	m.groups[g] = &groupState{
		name:      name,
		createdAt: m.clock.Now(),
		members:   make(map[topology.NodeID]*memberSpan),
		sessions:  make(map[SessionID]*sessionState),
	}
	m.record(EventAllocate, g, -1)
}

// Revoke returns an abandoned group's address to the pool. Groups with
// members cannot be revoked.
func (m *Manager) Revoke(g packet.GroupID) error {
	gs, ok := m.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	for _, span := range gs.members {
		if span.online {
			return ErrGroupActive
		}
	}
	for id := range gs.sessions {
		_ = m.EndSession(g, id) // best effort; already-closed is fine
	}
	delete(m.groups, g)
	m.record(EventRevoke, g, -1)
	return nil
}

// Groups publishes the existing multicast addresses, sorted (§II-C:
// "publish the multicast addresses for existing multicast groups").
func (m *Manager) Groups() []packet.GroupID {
	out := make([]packet.GroupID, 0, len(m.groups))
	for g := range m.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MemberJoined records a member router coming online in a group. It is
// idempotent for an already-online member.
func (m *Manager) MemberJoined(g packet.GroupID, member topology.NodeID) error {
	gs, ok := m.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	span := gs.members[member]
	if span == nil {
		span = &memberSpan{}
		gs.members[member] = span
	}
	if span.online {
		return nil
	}
	span.online = true
	span.joinedAt = m.clock.Now()
	m.record(EventJoin, g, member)
	return nil
}

// MemberLeft records a member router going offline.
func (m *Manager) MemberLeft(g packet.GroupID, member topology.NodeID) error {
	gs, ok := m.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	span := gs.members[member]
	if span == nil || !span.online {
		return nil
	}
	span.online = false
	span.total += m.clock.Now() - span.joinedAt
	m.record(EventLeave, g, member)
	return nil
}

// MemberOnTime returns the member's accumulated online time in the
// group — the paper's accounting/billing basis ("keeps track of all the
// membership on-off information ... for accounting/billing purposes").
func (m *Manager) MemberOnTime(g packet.GroupID, member topology.NodeID) des.Time {
	gs, ok := m.groups[g]
	if !ok {
		return 0
	}
	span := gs.members[member]
	if span == nil {
		return 0
	}
	total := span.total
	if span.online {
		total += m.clock.Now() - span.joinedAt
	}
	return total
}

// Query returns the queryable state of a group.
func (m *Manager) Query(g packet.GroupID) (GroupInfo, error) {
	gs, ok := m.groups[g]
	if !ok {
		return GroupInfo{}, ErrUnknownGroup
	}
	info := GroupInfo{Group: g, Name: gs.name, CreatedAt: gs.createdAt}
	for member, span := range gs.members {
		if span.online {
			info.Members = append(info.Members, member)
		}
	}
	sort.Slice(info.Members, func(i, j int) bool { return info.Members[i] < info.Members[j] })
	for id := range gs.sessions {
		info.Sessions = append(info.Sessions, id)
	}
	sort.Slice(info.Sessions, func(i, j int) bool { return info.Sessions[i] < info.Sessions[j] })
	return info, nil
}

// StartSession opens a session in a group. A positive lifetime
// schedules automatic teardown on the scheduler (which must then be the
// manager's clock); zero means the session lives until EndSession.
func (m *Manager) StartSession(g packet.GroupID, lifetime des.Time, sched *des.Scheduler) (SessionID, error) {
	gs, ok := m.groups[g]
	if !ok {
		return 0, ErrUnknownGroup
	}
	m.nextSess++
	id := m.nextSess
	ss := &sessionState{info: SessionInfo{
		ID: id, Group: g, StartedAt: m.clock.Now(), Active: true,
	}}
	if lifetime > 0 {
		if sched == nil {
			return 0, errors.New("session: lifetime requires a scheduler")
		}
		ss.info.ExpiresAt = m.clock.Now() + lifetime
		ss.exp = sched.After(lifetime, func() { _ = m.EndSession(g, id) })
	}
	gs.sessions[id] = ss
	m.record(EventSessionStart, g, -1)
	return id, nil
}

// EndSession tears a session down (expired or explicit).
func (m *Manager) EndSession(g packet.GroupID, id SessionID) error {
	gs, ok := m.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	ss, ok := gs.sessions[id]
	if !ok || !ss.info.Active {
		return ErrSessionClosed
	}
	ss.info.Active = false
	if ss.exp != nil {
		ss.exp.Cancel()
	}
	m.record(EventSessionEnd, g, -1)
	return nil
}

// RecordTraffic charges a data packet to a session ("check, track and
// record the multicast traffic in the corresponding multicast session").
func (m *Manager) RecordTraffic(g packet.GroupID, id SessionID, bytes int) error {
	gs, ok := m.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	ss, ok := gs.sessions[id]
	if !ok || !ss.info.Active {
		return ErrSessionClosed
	}
	ss.info.Packets++
	ss.info.Bytes += uint64(bytes)
	return nil
}

// Session returns the queryable state of a session.
func (m *Manager) Session(g packet.GroupID, id SessionID) (SessionInfo, error) {
	gs, ok := m.groups[g]
	if !ok {
		return SessionInfo{}, ErrUnknownGroup
	}
	ss, ok := gs.sessions[id]
	if !ok {
		return SessionInfo{}, ErrSessionClosed
	}
	return ss.info, nil
}

// Log returns the accounting log (a copy), in chronological order; nil
// when nothing has been logged.
func (m *Manager) Log() []Event { return slices.Concat(m.log...) }
