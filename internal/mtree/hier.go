package mtree

import (
	"fmt"

	"scmp/internal/topology"
)

// HierDCDM is the inter-domain composer of the hierarchical SCMP mode
// (DESIGN.md §15): one incremental DCDM per *active* domain, each run
// over that domain's induced subgraph with its own lazy all-pairs
// tables, stitched into a single composed global tree rooted at the
// core domain's m-router. Domains activate on their first member join —
// realising a concrete splice path from the core m-router over the
// contracted backbone graph to the border router where it enters the
// domain, which anchors the domain subtree (head-to-tail with the
// splice, so local grafts never run against a splice edge) — and
// deactivate when their last member leaves, so resident routing state
// is proportional to the *touched* domains, not the whole network.
//
// Delay accounting stays exact across the domain boundary: the composed
// tree tracks real link-delay sums on the realized global paths.
//
// With a single domain the composer degenerates to the flat engine
// byte-for-byte: the domain subgraph *is* the original graph (same
// pointer, identity id mapping), the local DCDM sees exactly the flat
// inputs, and the composed tree mirrors its every graft — the
// equivalence the differential gate (hier_test.go) enforces.
type HierDCDM struct {
	view   *topology.DomainView
	kappa  float64
	core   int
	root   topology.NodeID // the core domain's m-router
	tree   *Tree           // composed global tree (authoritative structure)
	locals []*hierLocal    // nil until the domain activates
	active int
}

type hierLocal struct {
	dcdm *DCDM
	sub  *topology.DomainSub
	// anchor is the domain subtree's root in global ids: the border
	// router where the splice enters the domain (the core m-router for
	// the core domain). Rooting at the entry point — not the domain
	// m-router — keeps the splice and the local tree orientation-
	// aligned: the splice ends exactly where local paths begin, so a
	// local graft can never run against a splice edge inside its own
	// domain.
	anchor topology.NodeID
}

// HierJoinResult describes how a join changed the composed tree: a
// local graft path, plus — when the join activated its domain — the
// newly grafted border splice.
type HierJoinResult struct {
	Member topology.NodeID
	Domain int
	// AlreadyOn: the member was already a relay on its domain tree;
	// only the membership bit changed.
	AlreadyOn bool
	// Activated: this join was the domain's first — SplicePath holds
	// the newly grafted segment of the realized core→m-router splice
	// (nil for the core domain itself, and empty of new hops when the
	// domain m-router was already a relay on the composed tree).
	Activated  bool
	SplicePath []topology.NodeID
	// Path is the global graft path of the local (intra-domain) graft,
	// oriented graft-node-first; nil when AlreadyOn.
	Path []topology.NodeID
	// Restructured reports a composed-tree restructure (loop break /
	// reparent) — the signal to re-distribute the whole tree.
	Restructured bool
}

// HierLeaveResult describes how a leave changed the composed tree.
type HierLeaveResult struct {
	Member topology.NodeID
	Domain int
	// Pruned lists the composed-tree nodes removed by the cascading
	// prune, member-first order.
	Pruned []topology.NodeID
	// Deactivated: this was the domain's last member; its local DCDM
	// state has been released.
	Deactivated bool
}

// NewHierDCDM builds the composer for the given domain view. mrouters
// holds one m-router per domain (index = domain id; each must lie in
// its domain — topology.DomainView.MRouters gives the default
// placement), core selects the core domain, and kappa is the paper's
// relative delay-bound factor applied within every domain.
func NewHierDCDM(view *topology.DomainView, mrouters []topology.NodeID, core int, kappa float64) *HierDCDM {
	if len(mrouters) != view.K() {
		panic(fmt.Sprintf("mtree: %d m-routers for %d domains", len(mrouters), view.K()))
	}
	for d, m := range mrouters {
		if view.Domain(m) != d {
			panic(fmt.Sprintf("mtree: m-router %d assigned to domain %d but lies in domain %d", m, d, view.Domain(m)))
		}
	}
	if core < 0 || core >= view.K() {
		panic(fmt.Sprintf("mtree: core domain %d out of range [0,%d)", core, view.K()))
	}
	h := &HierDCDM{
		view:   view,
		kappa:  kappa,
		core:   core,
		root:   mrouters[core],
		locals: make([]*hierLocal, view.K()),
	}
	h.tree = NewTree(view.Graph(), h.root)
	// The core domain is active from the start — its m-router is the
	// composed root — exactly as the flat engine's tree starts rooted.
	h.activate(core, nil)
	return h
}

// Tree returns the composed global tree. Its delays are exact link-
// delay sums over the realized global paths — the QoS accounting the
// tentpole requires across domain boundaries.
func (h *HierDCDM) Tree() *Tree { return h.tree }

// Root returns the core domain's m-router (the composed tree's root).
func (h *HierDCDM) Root() topology.NodeID { return h.root }

// ActiveDomains returns how many domains hold members.
func (h *HierDCDM) ActiveDomains() int { return h.active }

// Join admits member s: activates s's domain if this is its first
// member (realising and grafting the backbone splice), runs the
// domain-local incremental DCDM join, and mirrors the graft onto the
// composed tree in global coordinates.
func (h *HierDCDM) Join(s topology.NodeID) HierJoinResult {
	d := h.view.Domain(s)
	res := HierJoinResult{Member: s, Domain: d}
	ld := h.locals[d]
	if ld == nil {
		// Domain activation (splice realization, local-engine build) is
		// the amortized slow path: it runs once per domain membership
		// epoch, not per join, so its allocations are off the budget.
		ld = h.activate(d, &res)
	}
	lres := ld.dcdm.Join(ld.sub.Local(s))
	if lres.AlreadyOn {
		res.AlreadyOn = true
		if !h.tree.IsMember(s) {
			h.tree.SetMember(s, true)
		}
		hierCheckHook(h)
		return res
	}
	gpath := ld.sub.GlobalPath(lres.Path) // the one budgeted alloc: the translated path handed to the caller
	_, restructured := h.tree.Graft(gpath)
	h.tree.SetMember(s, true)
	res.Path = gpath
	res.Restructured = restructured
	hierCheckHook(h)
	return res
}

// Leave removes member s, pruning the composed tree and releasing the
// domain's local engine when its last member departs.
func (h *HierDCDM) Leave(s topology.NodeID) HierLeaveResult {
	d := h.view.Domain(s)
	res := HierLeaveResult{Member: s, Domain: d}
	ld := h.locals[d]
	if ld == nil {
		return res
	}
	lsID := ld.sub.Local(s)
	if !ld.dcdm.Tree().IsMember(lsID) {
		return res
	}
	ld.dcdm.Leave(lsID)
	if h.tree.IsMember(s) {
		res.Pruned = h.tree.Leave(s)
	}
	if ld.dcdm.Tree().MemberCount() == 0 {
		// Last member gone: release the local engine. Composed-tree
		// relays this domain still carries for *other* domains'
		// splices stay — a later reactivation re-splices through them.
		h.locals[d] = nil
		h.active--
		res.Deactivated = true
	}
	hierCheckHook(h)
	return res
}

// activate brings domain d up: realizes the splice path from the
// composed root over the backbone graph (non-core domains), grafts its
// new suffix onto the composed tree, and builds the local DCDM over
// the domain subgraph rooted at the splice's entry border router.
func (h *HierDCDM) activate(d int, res *HierJoinResult) *hierLocal {
	sub := h.view.Sub(d)
	ld := &hierLocal{sub: sub, anchor: h.root}
	h.locals[d] = ld
	h.active++
	if res != nil {
		res.Activated = true
	}
	if d != h.core {
		full := h.realizeSplice(d)
		ld.anchor = full[len(full)-1]
		// Graft only the suffix past the LAST composed-tree node on the
		// path: everything before it is already installed, and
		// truncating there means the graft can only attach fresh nodes
		// — it can never re-enter the tree, so splices never trigger a
		// restructure and the composed structure stays consistent with
		// what the m-routers install (the suffix is exactly the BRANCH
		// the core distributes).
		last := 0
		for i, v := range full {
			if h.tree.OnTree(v) {
				last = i
			}
		}
		suffix := full[last:]
		h.tree.Graft(suffix)
		if res != nil {
			res.SplicePath = suffix
		}
	}
	ld.dcdm = NewDCDM(sub.G, sub.Local(ld.anchor), h.kappa, sub.Delay(), sub.Cost())
	return ld
}

// realizeSplice maps the backbone shortest-delay domain path core→d to
// a concrete global node path from the composed root to the border
// router where the final backbone hop enters d: per backbone hop, the
// intra-domain shortest-delay segment to the chosen border link's exit
// node (per-domain lazy tables), then the border link itself. The path
// deliberately stops at d's entry border router — the domain subtree
// anchors there, so the splice and the local tree meet head-to-tail
// with no overlap — and its delay sum is the exact inter-domain delay
// the QoS accounting charges.
func (h *HierDCDM) realizeSplice(d int) []topology.NodeID {
	bbRow := h.view.BackboneDelay().Row(topology.NodeID(h.core))
	domPath := bbRow.To(topology.NodeID(d))
	if domPath == nil {
		panic(fmt.Sprintf("mtree: domain %d unreachable from core domain %d over the backbone", d, h.core))
	}
	path := make([]topology.NodeID, 1, 16)
	path[0] = h.root
	cur := h.root
	for i := 1; i < len(domPath); i++ {
		from, to := int(domPath[i-1]), int(domPath[i])
		bl, ok := h.view.Border(from, to)
		if !ok {
			panic(fmt.Sprintf("mtree: backbone edge %d-%d has no border link", from, to))
		}
		sub := h.view.Sub(from)
		seg := sub.Delay().Row(sub.Local(cur)).To(sub.Local(bl.From))
		if seg == nil {
			panic(fmt.Sprintf("mtree: no intra-domain path %d->%d in domain %d", cur, bl.From, from))
		}
		for _, l := range seg[1:] {
			path = append(path, sub.Global(l))
		}
		path = append(path, bl.To)
		cur = bl.To
	}
	return path
}

// TableBytes reports the resident routing-table bytes of the view the
// composer consults (shared across groups using the same view).
func (h *HierDCDM) TableBytes() int64 { return h.view.TableBytes() }

// Validate checks the composed/local consistency contract the
// correctness argument rests on (DESIGN.md §15): the composed tree is
// a valid tree with exact delay accounting; every active domain's
// m-router sits on the composed tree; every *local-tree* node's
// composed parent equals its local parent translated to global ids
// (local roots excepted — their composed parent is the splice); and
// membership bits agree node-for-node, summing to the composed count.
func (h *HierDCDM) Validate() error {
	if err := h.tree.Validate(); err != nil {
		return fmt.Errorf("composed tree: %w", err)
	}
	totalMembers := 0
	for d, ld := range h.locals {
		if ld == nil {
			continue
		}
		lt := ld.dcdm.Tree()
		if err := lt.Validate(); err != nil {
			return fmt.Errorf("domain %d local tree: %w", d, err)
		}
		if !h.tree.OnTree(ld.anchor) {
			return fmt.Errorf("domain %d active but its anchor %d is off the composed tree", d, ld.anchor)
		}
		totalMembers += lt.MemberCount()
		for _, lv := range lt.Nodes() {
			gv := ld.sub.Global(lv)
			if !h.tree.OnTree(gv) {
				return fmt.Errorf("domain %d: local-tree node %d is off the composed tree", d, gv)
			}
			if lt.IsMember(lv) != h.tree.IsMember(gv) {
				return fmt.Errorf("domain %d: node %d membership bit differs local=%v composed=%v",
					d, gv, lt.IsMember(lv), h.tree.IsMember(gv))
			}
			lp, ok := lt.Parent(lv)
			if !ok {
				continue // local root: composed parent is the splice (or none for the core)
			}
			gp, ok := h.tree.Parent(gv)
			if !ok || gp != ld.sub.Global(lp) {
				return fmt.Errorf("domain %d: node %d composed parent %d != local parent %d",
					d, gv, gp, ld.sub.Global(lp))
			}
		}
	}
	if totalMembers != h.tree.MemberCount() {
		return fmt.Errorf("local member counts sum to %d but composed tree has %d members",
			totalMembers, h.tree.MemberCount())
	}
	return nil
}
