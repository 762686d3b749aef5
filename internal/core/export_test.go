package core

import (
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// HomeOf exposes the group-to-m-router assignment.
func (s *SCMP) HomeOf(g packet.GroupID) topology.NodeID { return s.home(g) }

// TrafficRecord returns the packets and bytes the m-router has switched
// for the group's session.
func (s *SCMP) TrafficRecord(g packet.GroupID) (packets, bytes uint64) {
	gs := s.groups[g]
	if gs == nil || gs.session == 0 {
		return 0, 0
	}
	info, err := s.acct.Session(g, gs.session)
	if err != nil {
		return 0, 0
	}
	return info.Packets, info.Bytes
}
