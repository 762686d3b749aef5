package mtree

import (
	"fmt"
	"math"

	"scmp/internal/topology"
)

// DCDM is the paper's Delay-Constrained Dynamic Multicast tree algorithm
// (§III-D, from the authors' ICCCN'05 paper), run centrally at the
// m-router. It maintains a shared tree rooted at the m-router and
// updates it incrementally on member joins and leaves:
//
//   - The delay bound l is the longest unicast delay among current
//     members, scaled by the constraint multiplier Kappa (Kappa = 1 is
//     the paper's "tightest" level; Kappa = +Inf is "loosest").
//   - When a new member s has unicast delay above l, its shortest-delay
//     path to the m-router is added and l grows to ul(s).
//   - Otherwise, among the 2m candidate paths — the least-cost path P_lc
//     and the shortest-delay path P_sl from s to each of the m on-tree
//     routers — the cheapest path keeping ml(s) <= l is grafted.
//   - If the grafted path re-enters the tree, the loop is broken by
//     pruning the re-entered node's old upstream branch (Fig. 5(c,d)).
//   - On leave, the branch serving only the leaving member is pruned.
//
// This is the incremental engine: the longest member unicast delay is
// one number, raised by max on a join and rescanned over the members
// only when a leave removes a member at that maximum; the graft search
// walks the joining router's shortest-path rows nearest-first, reading
// the tree's cached ml(v), and stops at the radius of the best feasible
// candidate (see bestGraftPath). The historical scanning implementation survives as
// the test oracle dcdmRef (ref_test.go) behind the differential gate in
// equiv_test.go.
type DCDM struct {
	g       *topology.Graph
	root    topology.NodeID
	kappa   float64
	absMax  float64 // optional absolute QoS budget; 0 = none
	tree    *Tree
	spDelay *topology.AllPairs // P_sl tables, one per source
	spCost  *topology.AllPairs // P_lc tables, one per source
	maxUL   float64            // longest member unicast delay; drives the relative bound
}

// JoinResult describes how a join changed the tree, which is what SCMP
// needs to decide between a BRANCH packet (pure graft) and a TREE packet
// (restructured tree).
type JoinResult struct {
	Member       topology.NodeID
	AlreadyOn    bool              // s was an on-tree router; no new links
	Path         []topology.NodeID // grafted path, graft node first, s last
	Restructured bool              // a loop was broken (old branches pruned)
	Pruned       []topology.NodeID // routers removed while breaking loops
	// BestEffort is set when an absolute QoS budget is configured and
	// the member cannot meet it (its unicast delay already exceeds the
	// budget): the member is connected by its shortest-delay path, the
	// best any tree can do.
	BestEffort bool
}

// SetQoSBudget imposes an absolute bound on every member's multicast
// delay (the paper's "QoS constraint on maximum end-to-end delay"),
// overriding the relative Kappa bound while set. Members whose unicast
// delay exceeds the budget are admitted best-effort (flagged in
// JoinResult). A non-positive budget removes the constraint.
func (d *DCDM) SetQoSBudget(budget float64) {
	if budget <= 0 {
		d.absMax = 0
		return
	}
	d.absMax = budget
}

// LeaveResult describes how a leave changed the tree.
type LeaveResult struct {
	Member topology.NodeID
	Pruned []topology.NodeID // routers removed, leaf upward
}

// NewDCDM builds a DCDM instance for group trees rooted at root. Kappa
// scales the delay bound (>= 1, or +Inf for no delay constraint).
// spDelay/spCost are g's shortest-delay and least-cost tables; sharing
// them across instances makes the Fig. 7 sweep cheap, and SCMP hands
// every group its network's routing store.
func NewDCDM(g *topology.Graph, root topology.NodeID, kappa float64, spDelay, spCost *topology.AllPairs) *DCDM {
	if kappa < 1 {
		panic(fmt.Sprintf("mtree: DCDM kappa %g < 1 would reject every tree", kappa))
	}
	return &DCDM{
		g:       g,
		root:    root,
		kappa:   kappa,
		tree:    NewTree(g, root),
		spDelay: spDelay,
		spCost:  spCost,
	}
}

// Tree returns the live tree. Callers must treat it as read-only.
func (d *DCDM) Tree() *Tree { return d.tree }

// Bound returns the current delay bound l: the absolute QoS budget when
// one is set, otherwise Kappa x the longest member unicast delay. With
// no members, no budget and finite Kappa the bound is 0.
func (d *DCDM) Bound() float64 {
	if d.absMax > 0 {
		return d.absMax
	}
	if math.IsInf(d.kappa, 1) {
		return math.Inf(1)
	}
	return d.kappa * d.maxUL
}

// UnicastDelay returns ul(v): the shortest-path delay between v and the
// m-router.
func (d *DCDM) UnicastDelay(v topology.NodeID) float64 {
	return d.spDelay.Row(d.root).Delay[v]
}

// Join adds member router s to the group and updates the tree. Steady
// state it performs exactly one allocation: the grafted path slice the
// caller owns through JoinResult.
func (d *DCDM) Join(s topology.NodeID) JoinResult {
	res := JoinResult{Member: s}
	ul := d.UnicastDelay(s)
	if d.tree.OnTree(s) {
		// Already a relay (or the root itself): just mark membership.
		res.AlreadyOn = true
		if !d.tree.IsMember(s) {
			d.tree.SetMember(s, true)
			d.maxUL = max(d.maxUL, ul)
		}
		return res
	}
	bound := d.Bound()
	var path []topology.NodeID
	if ul > bound {
		// s is farther than the bound allows: connect it by its
		// shortest-delay path — no tree can serve it faster. Under the
		// relative bound this also raises the bound; under an absolute
		// QoS budget the member is flagged best-effort.
		path = d.spDelay.Row(d.root).To(s) // the one budgeted alloc: the path handed to the caller
		res.BestEffort = d.absMax > 0
	} else {
		path = d.bestGraftPath(s, bound)
	}
	if path == nil {
		panic(fmt.Sprintf("mtree: no graft path for %d (disconnected graph?)", s))
	}
	res.Path = path
	res.Pruned, res.Restructured = d.tree.Graft(path)
	d.tree.SetMember(s, true)
	d.maxUL = max(d.maxUL, ul)
	dcdmCheckHook(d)
	return res
}

// bestGraftPath returns the least-cost candidate among the 2m paths
// (P_lc and P_sl from s to every on-tree router) whose resulting
// multicast delay respects the bound, oriented graft-node-first. The
// shortest-delay path to the root is always feasible, so a path always
// exists on a connected graph.
//
// Selection is the minimum under the strict total order (cost, ml,
// node id, cost-row-before-delay-row). The oracle realises that order
// by scanning every on-tree router over complete rows; this search
// reads only the part of s's rows that can hold the minimum, so both
// pick the identical candidate (DESIGN.md §14):
//
//   - the P_lc row is walked nearest-first and the walk stops at the
//     first router strictly costlier than the best feasible candidate:
//     every router beyond it has cost(P_lc) > best, and cost(P_sl) >=
//     cost(P_lc), so neither of its paths can win;
//   - P_sl can then only win for the on-tree routers inside that
//     radius — including those whose P_lc was delay-infeasible, and on
//     an equal cost the ladder can still prefer it on ml — so the P_sl
//     row is advanced just until those are settled, and they are
//     considered second, which keeps cost-row-before-delay-row.
//
// With no feasible P_lc the walk exhausts the row, every reachable
// on-tree router is inside the radius, and the search degrades to the
// full scan. Candidate evaluation is two array reads (cached ml + row
// entry); the search keeps no scratch of its own.
func (d *DCDM) bestGraftPath(s topology.NodeID, bound float64) []topology.NodeID {
	lc := d.spCost.Near(s)
	sl := d.spDelay.Near(s)
	var best graftCand
	inside := 0 // routers of the P_lc row within the best candidate's cost radius
	for {
		v, ok := lc.Next()
		if !ok || (best.have && lc.Cost(v) > best.cost) {
			break
		}
		inside++
		if tml, on := d.treeDelayWithin(v, bound); on {
			best.consider(v, &lc, false, tml, bound)
		}
	}
	walk := d.spCost.Near(s)
	for ; inside > 0; inside-- {
		v, _ := walk.Next()
		if tml, on := d.treeDelayWithin(v, bound); on && sl.Settle(v) {
			best.consider(v, &sl, true, tml, bound)
		}
	}
	if !best.have {
		// Guaranteed fallback: shortest-delay path to the root
		// (ml = ul(s) <= bound whenever this branch is reached).
		sp := d.spDelay.Row(d.root)
		return sp.To(s) // the one budgeted alloc: the path handed to the caller
	}
	// The rows' paths run s -> v; reverse to graft-node-first order.
	row := &lc
	if best.viaDelay {
		row = &sl
	}
	path := row.To(best.node) // the one budgeted alloc: the path handed to the caller
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// treeDelayWithin returns on-tree router v's cached multicast delay and
// true, or false when v is off the tree or already over the bound on
// its own (path delays are non-negative, so no path to it is feasible).
func (d *DCDM) treeDelayWithin(v topology.NodeID, bound float64) (float64, bool) {
	if !d.tree.OnTree(v) {
		return 0, false
	}
	tml := d.tree.ml[v]
	return tml, !(tml > bound)
}

// graftCand accumulates the best graft candidate seen so far under the
// strict (cost, ml, id) ladder. It is a plain value on bestGraftPath's
// stack — a closure here would heap-allocate its capture block on every
// join.
type graftCand struct {
	have     bool
	viaDelay bool // the candidate is P_sl(s, node), not P_lc(s, node)
	cost, ml float64
	node     topology.NodeID
}

// consider folds candidate v (settled in row, s's P_sl row when
// viaDelay) into the running best.
func (b *graftCand) consider(v topology.NodeID, row *topology.Near, viaDelay bool, tml, bound float64) {
	ml := tml + row.Delay(v)
	if ml > bound {
		return
	}
	cost := row.Cost(v)
	// Strict </> ladder: cost, then multicast delay, then node id.
	// Exact float equality as a tie-break would make the choice
	// depend on summation order.
	better := !b.have
	if !better {
		switch {
		case cost < b.cost:
			better = true
		case b.cost < cost:
		case ml < b.ml:
			better = true
		case b.ml < ml:
		default:
			better = v < b.node
		}
	}
	if better {
		b.have = true
		b.cost, b.ml, b.node, b.viaDelay = cost, ml, v, viaDelay
	}
}

// Leave removes member router s from the group, pruning the branch that
// served only s (§III-D: prune upstream until a member or a fork).
// Steady state it allocates nothing: the prune walk reuses tree-owned
// scratch, and the bound is untouched unless the departing member's
// unicast delay IS the current maximum (only then does an O(m) member
// rescan run, after the tree has dropped s).
func (d *DCDM) Leave(s topology.NodeID) LeaveResult {
	// ul never exceeds maxUL, so >= means "s holds the maximum".
	rescan := d.tree.IsMember(s) && d.UnicastDelay(s) >= d.maxUL
	res := LeaveResult{Member: s, Pruned: d.tree.Leave(s)}
	if rescan {
		d.maxUL = d.recomputeMaxUL()
	}
	dcdmCheckHook(d)
	return res
}

// DetachSubtree removes the subtree rooted at v (whose upstream tree
// link died) from the m-router's tree copy, returning the stranded
// member routers in ascending order so the caller can re-graft them
// with fresh Join calls. The bound is rescanned over the surviving
// members only when an orphan held the maximum.
func (d *DCDM) DetachSubtree(v topology.NodeID) []topology.NodeID {
	orphans := d.tree.DetachSubtree(v)
	for _, m := range orphans {
		if d.UnicastDelay(m) >= d.maxUL {
			d.maxUL = d.recomputeMaxUL()
			break
		}
	}
	dcdmCheckHook(d)
	return orphans
}

// Tables returns the shortest-path tables the engine reads.
func (d *DCDM) Tables() (spDelay, spCost *topology.AllPairs) { return d.spDelay, d.spCost }

// Rebase rebuilds the member delay bound against the tables' current
// rows. Call it whenever the tables were invalidated onto another
// topology (netsim's RecomputeRoutes after a fault): every member's
// unicast delay may have changed, and without the rescan the bound
// would keep a maximum no member has any more, or miss a larger one.
// Members currently unreachable contribute an infinite unicast delay,
// which relaxes the relative bound to +Inf for the duration of the
// partition (repair is best-effort: connectivity first, delay
// discipline after the heal).
func (d *DCDM) Rebase() {
	d.maxUL = d.recomputeMaxUL()
	dcdmCheckHook(d)
}

// recomputeMaxUL rescans the member set for the longest unicast delay,
// 0 with no members: O(m), run by Rebase and by a leave of the farthest
// member (and by dcdmCheckHook as the cross-check of maxUL).
func (d *DCDM) recomputeMaxUL() float64 {
	hi := 0.0
	for _, m := range d.tree.Members() {
		hi = max(hi, d.UnicastDelay(m))
	}
	return hi
}

// Graft splices path (which starts at an on-tree router and ends at the
// joining router) into the tree, breaking any loops the paper's way:
// when the path re-enters the tree at a node x, x adopts the path as its
// new upstream and x's old upstream branch is pruned back to a member or
// fork. It returns the routers pruned while breaking loops and whether
// any restructuring happened.
func (t *Tree) Graft(path []topology.NodeID) (pruned []topology.NodeID, restructured bool) {
	if len(path) == 0 || !t.OnTree(path[0]) {
		panic("mtree: Graft path must start on the tree")
	}
	var orphans []topology.NodeID
	prev := path[0]
	for _, x := range path[1:] {
		if !t.OnTree(x) {
			t.attach(x, prev)
		} else if x == t.root || t.isAncestor(x, prev) {
			// Re-parenting x under prev would orphan the root or create
			// a cycle (prev lives in x's subtree). Abandon the chain
			// built so far — it dangles and is pruned below — and
			// continue along the tree from x.
			if t.parent[x] != prev {
				orphans = append(orphans, prev) // restructuring path only; clean steady-state grafts never reach it
				restructured = true
			}
		} else if t.parent[x] == prev {
			// The path follows an existing tree edge; nothing to do.
		} else {
			// Loop detected at x: adopt the new upstream, prune the old
			// branch upstream until a member or a fork survives.
			oldParent := t.parent[x]
			t.reparent(x, prev)
			pruned = append(pruned, t.PruneFrom(oldParent)...) // restructuring path only; clean steady-state grafts never reach it
			restructured = true
		}
		prev = x
	}
	for _, o := range orphans {
		pruned = append(pruned, t.PruneFrom(o)...) // restructuring path only
	}
	return pruned, restructured
}

// isAncestor reports whether a lies on v's path to the root (a == v
// counts as true).
func (t *Tree) isAncestor(a, v topology.NodeID) bool {
	for {
		if v == a {
			return true
		}
		p := t.parent[v]
		if p < 0 {
			return false
		}
		v = p
	}
}
