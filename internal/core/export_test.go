package core

import (
	"scmp/internal/mtree"
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

// newWithoutBranch is New with the BRANCH optimisation switched off:
// every join is distributed as a whole-tree TREE packet.
func newWithoutBranch(cfg Config) *SCMP {
	s := New(cfg)
	s.noBranch = true
	return s
}

// groupEngine returns g's DCDM engine (nil when the group has no state
// yet).
func (s *SCMP) groupEngine(g packet.GroupID) *mtree.DCDM {
	if gs := s.groups[g]; gs != nil {
		return gs.dcdm
	}
	return nil
}

// pendingRequests returns the number of unacknowledged reliable control
// requests on their retry ladders across all routers.
func (s *SCMP) pendingRequests() int { return len(s.slots) - s.parkedRequests() }

// parkedRequests returns the number of requests currently in the
// degraded parked state.
func (s *SCMP) parkedRequests() int {
	n := 0
	for i := range s.reqs {
		if s.reqs[i].live && s.reqs[i].parked {
			n++
		}
	}
	return n
}
