// Package session implements the part of the m-router's group and
// session management database (§II-C) the control plane drives: the
// groups it adopts, one session per group with its traffic record
// ("check, track and record the multicast traffic in the corresponding
// multicast session"), per-member on-off tracking for accounting and
// billing, and the chronological accounting log. Group addresses are
// assigned out of band (the simulator's group ids) and a session lives
// as long as the run, so address allocation, revocation and session
// expiry are not modelled.
package session

import (
	"errors"
	"fmt"
	"slices"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// Common errors.
var (
	ErrUnknownGroup   = errors.New("session: unknown group")
	ErrUnknownSession = errors.New("session: unknown session")
)

// EventKind enumerates accounting-log entries.
type EventKind int

const (
	EventAllocate EventKind = iota
	EventJoin
	EventLeave
	EventSessionStart
)

var eventNames = map[EventKind]string{
	EventAllocate: "ALLOCATE", EventJoin: "JOIN", EventLeave: "LEAVE",
	EventSessionStart: "SESSION-START",
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

// SessionID identifies a multicast session within a group.
type SessionID uint64

// SessionInfo is the queryable state of one session.
type SessionInfo struct {
	ID        SessionID
	Group     packet.GroupID
	StartedAt des.Time
	Packets   uint64
	Bytes     uint64
}

type groupState struct {
	members  map[topology.NodeID]*memberSpan
	sessions map[SessionID]*SessionInfo
}

// Clock supplies the current time; *des.Scheduler satisfies it.
type Clock interface{ Now() des.Time }

// Manager is the m-router's service database.
type Manager struct {
	clock    Clock
	groups   map[packet.GroupID]*groupState
	nextSess SessionID
	log      [][]Event // the accounting log; chunk k holds logChunk(k) records
}

// logChunk is the capacity of log chunk k: 8 doubling to 1024, so an
// append never copies a stored record and a short log stays small.
func logChunk(k int) int {
	if k >= 7 { // 8<<7 == 1024; the guard also keeps the shift from overflowing
		return 1024
	}
	return 8 << k
}

// NewManager returns a manager timestamping with clock.
func NewManager(clock Clock) *Manager {
	return &Manager{clock: clock, groups: make(map[packet.GroupID]*groupState)}
}

func (m *Manager) record(kind EventKind, g packet.GroupID, member topology.NodeID) {
	k := len(m.log)
	if k == 0 || len(m.log[k-1]) == cap(m.log[k-1]) {
		m.log = append(m.log, make([]Event, 0, logChunk(k)))
		k++
	}
	m.log[k-1] = append(m.log[k-1], Event{At: m.clock.Now(), Kind: kind, Group: g, Member: member})
}

// Adopt registers a group whose address was assigned externally (e.g. a
// well-known group configured out of band) so the manager can track its
// membership and sessions. Adopting an already-managed group is a no-op.
func (m *Manager) Adopt(g packet.GroupID) {
	if _, ok := m.groups[g]; ok {
		return
	}
	m.groups[g] = &groupState{
		members:  make(map[topology.NodeID]*memberSpan),
		sessions: make(map[SessionID]*SessionInfo),
	}
	m.record(EventAllocate, g, -1)
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

// StartSession opens a session in a group; it lasts as long as the
// manager.
func (m *Manager) StartSession(g packet.GroupID) (SessionID, error) {
	gs, ok := m.groups[g]
	if !ok {
		return 0, ErrUnknownGroup
	}
	m.nextSess++
	id := m.nextSess
	gs.sessions[id] = &SessionInfo{ID: id, Group: g, StartedAt: m.clock.Now()}
	m.record(EventSessionStart, g, -1)
	return id, nil
}

// RecordTraffic charges a data packet to a session ("check, track and
// record the multicast traffic in the corresponding multicast session").
func (m *Manager) RecordTraffic(g packet.GroupID, id SessionID, bytes int) error {
	gs, ok := m.groups[g]
	if !ok {
		return ErrUnknownGroup
	}
	ss, ok := gs.sessions[id]
	if !ok {
		return ErrUnknownSession
	}
	ss.Packets++
	ss.Bytes += uint64(bytes)
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
		return SessionInfo{}, ErrUnknownSession
	}
	return *ss, nil
}

// Log returns the accounting log (a copy), in chronological order; nil
// when nothing has been logged.
func (m *Manager) Log() []Event { return slices.Concat(m.log...) }
