// Hierarchical multi-domain SCMP (PROTOCOL.md §13, DESIGN.md §15): one
// m-router per domain, each resolving its own members' JOIN/LEAVE
// against the shared inter-domain composer (mtree.HierDCDM). Membership
// signalling stays inside the member's domain; the only control traffic
// that crosses a domain boundary is the border graft — a GRAFT from the
// local m-router handing the group's core m-router a newly realized
// backbone splice, answered by the core with the BRANCH that installs
// it — plus the install packets themselves walking the composed paths.
//
// Distribution discipline. Flat SCMP bumps the group version per join
// and relies on every BRANCH sharing the home as origin (per-link FIFO)
// for ordering. Hierarchical installs have many origins — each domain's
// m-router plus the core — so here the version moves only when a whole
// TREE is distributed (restructure, refresh): concurrent BRANCHes carry
// equal versions and never suppress each other, while anything in
// flight across a restructure is still fenced off by the TREE's bumped
// version. BRANCH packets are unicast-addressed to their first path
// node (the graft point); an addressed head never adopts the packet's
// unicast-relay From as its upstream (see handleBranch).
package core

import (
	"fmt"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// hierarchical reports whether the instance runs the multi-domain mode.
// A single-domain configuration is normalised to flat in New, so
// hierarchical implies at least two domains.
func (s *SCMP) hierarchical() bool { return s.view != nil }

// localHome returns the m-router of v's domain — where v's DR sends its
// control requests in hierarchical mode.
func (s *SCMP) localHome(v topology.NodeID) topology.NodeID {
	return s.cfg.DomainMRouters[s.cfg.Domains[v]]
}

// ctrlHome returns the m-router node's control requests for g go to:
// the node's local m-router in hierarchical mode, the group's home
// otherwise.
func (s *SCMP) ctrlHome(node topology.NodeID, g packet.GroupID) topology.NodeID {
	if s.view != nil {
		return s.localHome(node)
	}
	return s.home(g)
}

// isCtrlHome reports whether node is the m-router that serves
// requester's control requests for g.
func (s *SCMP) isCtrlHome(node, requester topology.NodeID, g packet.GroupID) bool {
	if s.view != nil {
		return node == s.localHome(requester)
	}
	return s.isHome(node, g)
}

// hierJoin processes a JOIN at the member's local m-router: run the
// composer, then distribute exactly the paths that changed — the local
// graft as a BRANCH from this m-router, and, when the join activated
// its domain, the backbone splice via a GRAFT to the core. A composed-
// tree restructure falls back to a full TREE distribution from the
// core, exactly like flat.
func (s *SCMP) hierJoin(member topology.NodeID, g packet.GroupID) {
	gs := s.group(g)
	gs.lastChange = s.net.Now()
	defer s.armRefresh(g, gs)
	if gs.session == 0 {
		s.acct.Adopt(g, fmt.Sprintf("group-%d", g)) // once per group: a group with a session is already adopted
		if id, err := s.acct.StartSession(g, 0, nil); err == nil {
			gs.session = id
		}
	}
	_ = s.acct.MemberJoined(g, member)
	lm := s.localHome(member)
	res := gs.hier.Join(member)
	if res.Restructured {
		s.net.NoteRestructure(lm)
	}
	s.syncMRouterEntry(g, gs)
	if res.Restructured || s.cfg.DisableBranch {
		gs.version++
		s.distributeTree(g, gs)
		return
	}
	if res.Activated && len(res.SplicePath) > 1 {
		// Border graft: the splice's newly grafted segment plus the
		// member's local graft below it form one contiguous composed
		// path. Hand it to the core m-router, which installs it as a
		// single BRANCH — the only control exchange crossing domains.
		install := append([]topology.NodeID(nil), res.SplicePath...)
		if len(res.Path) > 1 {
			install = append(install, res.Path[1:]...)
		}
		s.sendGraft(lm, g, gs.version, install)
		return
	}
	if res.AlreadyOn {
		// The member was already a relay: refresh its path from the
		// domain anchor (idempotent; the DR may be awaiting re-homing).
		path := s.branchFromAnchor(gs, res.Domain, member)
		if path == nil {
			gs.version++
			s.distributeTree(g, gs)
			return
		}
		s.deliverBranch(lm, g, gs.version, path)
		return
	}
	s.deliverBranch(lm, g, gs.version, res.Path)
}

// hierLeave processes a LEAVE at the member's local m-router. The
// network-side teardown is the leaving DR's hop-by-hop PRUNE, exactly
// as in flat mode; the composer prunes its copy and releases the
// domain's engine when its last member departs.
func (s *SCMP) hierLeave(member topology.NodeID, g packet.GroupID) {
	gs := s.groups[g]
	if gs == nil {
		return
	}
	_ = s.acct.MemberLeft(g, member)
	gs.lastChange = s.net.Now()
	gs.hier.Leave(member)
	s.syncMRouterEntry(g, gs)
}

// branchFromAnchor returns the composed-tree path from domain d's
// splice anchor down to member (anchor first), nil when it cannot be
// derived (caller falls back to a TREE distribution).
func (s *SCMP) branchFromAnchor(gs *groupState, d int, member topology.NodeID) []topology.NodeID {
	anchor, ok := gs.hier.DomainAnchor(d)
	if !ok {
		return nil
	}
	rev := gs.hier.Tree().PathToRoot(member) // member ... root
	if rev == nil {
		return nil
	}
	idx := -1
	for i, v := range rev {
		if v == anchor {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	path := make([]topology.NodeID, idx+1)
	for i := 0; i <= idx; i++ {
		path[i] = rev[idx-i]
	}
	return path
}

// deliverBranch installs path (head already on the composed tree) as a
// BRANCH: unicast-addressed to the head, then self-routing hop-by-hop.
// Delivering to the origin itself is immediate (netsim self-delivery).
func (s *SCMP) deliverBranch(origin topology.NodeID, g packet.GroupID, version uint64, path []topology.NodeID) {
	if len(path) == 0 {
		return
	}
	s.buf = packet.AppendBranch(s.buf[:0], path)
	s.net.SendUnicast(origin, &netsim.Packet{
		Kind:    packet.Branch,
		Group:   g,
		Src:     origin,
		Dst:     path[0],
		Version: version,
		Payload: s.buf,
		Size:    len(s.buf) + 8,
	})
}

// sendGraft asks the group's core m-router to install a newly realized
// inter-domain splice (plus the first member's local tail).
func (s *SCMP) sendGraft(lm topology.NodeID, g packet.GroupID, version uint64, path []topology.NodeID) {
	s.buf = packet.AppendBranch(s.buf[:0], path)
	s.net.SendUnicast(lm, &netsim.Packet{
		Kind:    packet.Graft,
		Group:   g,
		Src:     lm,
		Dst:     s.home(g),
		Version: version,
		Payload: s.buf,
		Size:    len(s.buf) + 8,
	})
}

// handleGraft is the core m-router's side of the border graft: validate
// and distribute the splice as a BRANCH, unless a restructure's TREE
// already superseded it.
func (s *SCMP) handleGraft(node topology.NodeID, pkt *netsim.Packet) {
	path, err := packet.DecodeBranchTo(pkt.Payload, s.path[:0])
	if err != nil || len(path) < 2 {
		return
	}
	s.path = path
	gs := s.groups[pkt.Group]
	if gs == nil || gs.hier == nil {
		return
	}
	if pkt.Version < gs.version {
		return // a restructure redistributed the whole tree meanwhile
	}
	s.deliverBranch(node, pkt.Group, pkt.Version, path)
}
