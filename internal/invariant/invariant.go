// Package invariant is the runtime safety net for the properties the
// simulator's results rest on: every committed multicast tree is a real
// tree (acyclic, connected, rooted at the m-router's home node, with
// symmetric parent/child pointers over existing links) that serves every
// member within its delay bound, and the m-router's switching fabric
// keeps concurrent groups isolated.
//
// The checks run in two places. Tests call CheckTree / CheckFabric
// directly on known-good and deliberately corrupted structures. The
// simulator hot path calls them through no-op hooks that the
// "invariants" build tag turns on (`go test -tags invariants ./...`):
// core re-checks each tree as it commits at the m-router, mtree
// re-validates after every DCDM Join/Leave, and fabric verifies each
// routed configuration. A violation panics — by construction it means a
// protocol bug, not bad input — so a tagged run fails loudly at the
// first corrupt commit instead of producing subtly wrong figures.
//
// Everything here goes through the checked packages' public read-only
// APIs, so the checker cannot itself disturb the state it is examining.
package invariant

import (
	"fmt"
	"sort"

	"scmp/internal/fabric"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// Tree is the read-only view of a multicast tree CheckTree examines.
// *mtree.Tree implements it; the checker's own tests hand it trees built
// from bare parent maps, which no mutator guards.
type Tree interface {
	Root() topology.NodeID
	Graph() *topology.Graph
	Nodes() []topology.NodeID
	Parent(v topology.NodeID) (topology.NodeID, bool)
	Children(v topology.NodeID) []topology.NodeID
	Members() []topology.NodeID
	OnTree(v topology.NodeID) bool
	IsMember(v topology.NodeID) bool
	Delay(v topology.NodeID) float64
}

// TreeSpec is what a committed tree promises to be.
type TreeSpec struct {
	// Root is the node the tree must be rooted at: the active m-router's
	// home node.
	Root topology.NodeID
	// DelayBound, when positive, is the maximum root-to-member delay any
	// member may experience. Zero skips the delay check: DCDM's bound
	// shrinks when the farthest member leaves without restructuring the
	// survivors, so a bound is only enforceable where the caller knows
	// one holds (joins, fresh trees).
	DelayBound float64
}

// CheckTree validates t against spec. It returns nil for a well-formed
// tree and a descriptive error naming the first violated invariant
// otherwise. The checks are ordered so that structural soundness
// (acyclicity, connectivity) is established before anything that walks
// parent chains unguarded (delay computation).
func CheckTree(t Tree, spec TreeSpec) error {
	root := t.Root()
	if root != spec.Root {
		return fmt.Errorf("invariant: tree rooted at %d, want m-router home %d", root, spec.Root)
	}
	g := t.Graph()
	nodes := t.Nodes()

	// Acyclic and connected: every on-tree node's parent chain must
	// reach the root without revisiting a node, over edges that exist.
	for _, v := range nodes {
		seen := map[topology.NodeID]bool{v: true}
		for cur := v; cur != root; {
			p, ok := t.Parent(cur)
			if !ok {
				return fmt.Errorf("invariant: orphaned branch — %d's parent chain dead-ends at %d, never reaching root %d", v, cur, root)
			}
			if _, exists := g.Edge(cur, p); !exists {
				return fmt.Errorf("invariant: tree edge %d-%d is not a link in the topology", cur, p)
			}
			if seen[p] {
				return fmt.Errorf("invariant: cycle — %d's parent chain revisits %d", v, p)
			}
			seen[p] = true
			cur = p
		}
	}

	// Parent/child pointer symmetry, both directions.
	for _, v := range nodes {
		for _, c := range t.Children(v) {
			if p, ok := t.Parent(c); !ok || p != v {
				return fmt.Errorf("invariant: asymmetric pointers — %d lists child %d, but %d's parent is not %d", v, c, c, v)
			}
		}
		if v == root {
			continue
		}
		p, _ := t.Parent(v)
		symmetric := false
		for _, c := range t.Children(p) {
			if c == v {
				symmetric = true
				break
			}
		}
		if !symmetric {
			return fmt.Errorf("invariant: asymmetric pointers — %d's parent is %d, but %d does not list it as a child", v, p, p)
		}
	}

	// Membership: every member is on the tree, and — the tree being
	// minimal — every leaf is a member (a non-member leaf is a branch
	// the protocol failed to prune).
	for _, m := range t.Members() {
		if !t.OnTree(m) {
			return fmt.Errorf("invariant: member %d is off the tree", m)
		}
	}
	for _, v := range nodes {
		if v != root && len(t.Children(v)) == 0 && !t.IsMember(v) {
			return fmt.Errorf("invariant: unpruned branch — leaf %d is not a member", v)
		}
	}

	// Delay bound (structure already proven acyclic, so Delay's parent
	// walk terminates).
	if spec.DelayBound > 0 {
		for _, m := range t.Members() {
			if d := t.Delay(m); d > spec.DelayBound {
				return fmt.Errorf("invariant: member %d delay %.4f exceeds bound %.4f", m, d, spec.DelayBound)
			}
		}
	}
	return nil
}

// CheckFabric validates a routed fabric configuration's group-isolation
// property: every input a group claims routes to that group's output
// and is labelled with that group's id, no output serves two groups,
// and inputs no group claims route nowhere. The structural half lives
// in (*fabric.Configuration).Verify — fabric cannot import this package
// — and this wrapper cross-checks the routed paths through the public
// Route API so a corrupted switch setting is caught even if the
// configuration's own bookkeeping still looks consistent.
//
//scmplint:ignore testonly — safety code: the checker for fabric configurations, exercised with Tamper's corruptions
func CheckFabric(c *fabric.Configuration) error {
	if err := c.Verify(); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	groups := c.Groups()
	gids := make([]int, 0, len(groups))
	for gid := range groups {
		gids = append(gids, int(gid))
	}
	sort.Ints(gids)
	claimed := make(map[int]bool)
	for _, id := range gids {
		gid := packet.GroupID(id)
		gc := groups[gid]
		for _, in := range gc.Inputs {
			claimed[in] = true
			out, got, ok := c.Route(in)
			if !ok {
				return fmt.Errorf("invariant: group %d input %d routes nowhere", gid, in)
			}
			if got != gid {
				return fmt.Errorf("invariant: cross-group connection — group %d input %d carries group %d's label", gid, in, got)
			}
			if out != gc.Output {
				return fmt.Errorf("invariant: cross-group connection — group %d input %d lands on output %d, want %d", gid, in, out, gc.Output)
			}
		}
	}
	for in := 0; in < c.N(); in++ {
		if claimed[in] {
			continue
		}
		if _, gid, ok := c.Route(in); ok {
			return fmt.Errorf("invariant: idle input %d routes as group %d", in, gid)
		}
	}
	return nil
}

// CheckEventSlot validates one pooled DES event at dispatch time,
// guarding the free-list recycling scheme the zero-allocation scheduler
// rests on (DESIGN.md §10). entryGen is the generation stamped into the
// heap entry when the slot was enqueued; slotGen is the slot's current
// generation; at and now are the event's firing time and the clock
// before dispatch. The parameters are primitives because the DES sits
// below this package in the import graph — its invariants hook passes
// the fields, not the types.
//
// A generation mismatch at the head of the heap means a slot was
// recycled while a heap entry still pointed at it — the use-after-free
// this scheme exists to make impossible: a recycled slot's payload
// belongs to a different, later event, so dispatching it would fire a
// cancelled (or already-fired) callback with another event's arguments.
// Time running backwards means the heap order itself broke.
func CheckEventSlot(entryGen, slotGen uint32, at, now float64) error {
	if entryGen != slotGen {
		return fmt.Errorf("invariant: DES slot recycled under a queued event (entry gen %d, slot gen %d)", entryGen, slotGen)
	}
	if at < now {
		return fmt.Errorf("invariant: DES dispatch would run time backwards (event at %g, clock %g)", at, now)
	}
	return nil
}
