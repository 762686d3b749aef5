package mtree

import (
	"fmt"
	"math"
	"sort"

	"scmp/internal/topology"
)

// This file preserves the pre-incremental mtree engine — the map-backed
// tree and the scanning DCDM with a full O(m) bound rescan per leave —
// verbatim except for renames and one documented deviation (TreeRef.Delay
// below). It is the reference side of the differential gate in
// equiv_test.go and is not used by protocol code: the dense Tree and
// incremental DCDM in tree.go/dcdm.go are the production engine, and any
// behavioural divergence between the two is a bug in the fast path.

// TreeRef is the historical map-backed multicast tree: parent and
// children maps, a member set, and no cached state — every Delay call
// walks the parent chain and every accessor sorts a fresh slice.
type TreeRef struct {
	g        *topology.Graph
	root     topology.NodeID
	parent   map[topology.NodeID]topology.NodeID
	children map[topology.NodeID]map[topology.NodeID]bool
	members  map[topology.NodeID]bool
}

// NewTreeRef returns a reference tree containing only the root.
func NewTreeRef(g *topology.Graph, root topology.NodeID) *TreeRef {
	if root < 0 || int(root) >= g.N() {
		panic(fmt.Sprintf("mtree: root %d out of range", root))
	}
	return &TreeRef{
		g:        g,
		root:     root,
		parent:   make(map[topology.NodeID]topology.NodeID),
		children: make(map[topology.NodeID]map[topology.NodeID]bool),
		members:  make(map[topology.NodeID]bool),
	}
}

// Root returns the tree root (the m-router).
func (t *TreeRef) Root() topology.NodeID { return t.root }

// OnTree reports whether v is currently on the tree.
func (t *TreeRef) OnTree(v topology.NodeID) bool {
	if v == t.root {
		return true
	}
	_, ok := t.parent[v]
	return ok
}

// Parent returns v's upstream router; ok is false for the root and for
// off-tree nodes.
func (t *TreeRef) Parent(v topology.NodeID) (topology.NodeID, bool) {
	p, ok := t.parent[v]
	return p, ok
}

// Children returns v's downstream routers, sorted for determinism.
func (t *TreeRef) Children(v topology.NodeID) []topology.NodeID {
	set := t.children[v]
	out := make([]topology.NodeID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsMember reports whether v is marked as a member router.
func (t *TreeRef) IsMember(v topology.NodeID) bool { return t.members[v] }

// SetMember marks or unmarks v as a member router. v must be on the tree
// to be marked.
func (t *TreeRef) SetMember(v topology.NodeID, member bool) {
	if member {
		if !t.OnTree(v) {
			panic(fmt.Sprintf("mtree: SetMember(%d) off tree", v))
		}
		t.members[v] = true
	} else {
		delete(t.members, v)
	}
}

// Members returns the member routers, sorted.
func (t *TreeRef) Members() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(t.members))
	for v := range t.members {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Nodes returns every on-tree node, sorted, root included.
func (t *TreeRef) Nodes() []topology.NodeID {
	out := []topology.NodeID{t.root}
	for v := range t.parent {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of on-tree nodes.
func (t *TreeRef) Size() int { return len(t.parent) + 1 }

// attach links child under parent; both must be adjacent in the graph
// and child must not already be on the tree.
func (t *TreeRef) attach(child, parent topology.NodeID) {
	if t.OnTree(child) {
		panic(fmt.Sprintf("mtree: attach(%d) already on tree", child))
	}
	if !t.OnTree(parent) {
		panic(fmt.Sprintf("mtree: attach under off-tree parent %d", parent))
	}
	if _, ok := t.g.Edge(child, parent); !ok {
		panic(fmt.Sprintf("mtree: attach %d under non-adjacent %d", child, parent))
	}
	t.parent[child] = parent
	if t.children[parent] == nil {
		t.children[parent] = make(map[topology.NodeID]bool)
	}
	t.children[parent][child] = true
}

// detach unlinks v from its parent, leaving v's subtree hanging off v.
func (t *TreeRef) detach(v topology.NodeID) {
	p, ok := t.parent[v]
	if !ok {
		return
	}
	delete(t.parent, v)
	delete(t.children[p], v)
	if len(t.children[p]) == 0 {
		delete(t.children, p)
	}
}

// reparent moves on-tree node v (and its whole subtree) under newParent.
func (t *TreeRef) reparent(v, newParent topology.NodeID) {
	if !t.OnTree(v) || v == t.root {
		panic(fmt.Sprintf("mtree: reparent(%d) invalid", v))
	}
	if _, ok := t.g.Edge(v, newParent); !ok {
		panic(fmt.Sprintf("mtree: reparent %d under non-adjacent %d", v, newParent))
	}
	t.detach(v)
	t.parent[v] = newParent
	if t.children[newParent] == nil {
		t.children[newParent] = make(map[topology.NodeID]bool)
	}
	t.children[newParent][v] = true
}

// PruneFrom removes v if it is a removable leaf (non-member, childless,
// not root), then walks upstream removing newly exposed removable leaves.
// It returns the nodes removed, bottom-up.
func (t *TreeRef) PruneFrom(v topology.NodeID) []topology.NodeID {
	var removed []topology.NodeID
	for v != t.root && t.OnTree(v) && !t.members[v] && len(t.children[v]) == 0 {
		p := t.parent[v]
		t.detach(v)
		removed = append(removed, v)
		v = p
	}
	return removed
}

// Leave unmarks v as a member and prunes any branch it no longer
// justifies. It returns the routers removed from the tree.
func (t *TreeRef) Leave(v topology.NodeID) []topology.NodeID {
	delete(t.members, v)
	return t.PruneFrom(v)
}

// DetachSubtree removes v and its entire subtree from the tree,
// returning the stranded member routers in ascending order. Detaching an
// off-tree node is a no-op; detaching the root panics.
func (t *TreeRef) DetachSubtree(v topology.NodeID) []topology.NodeID {
	if v == t.root {
		panic("mtree: DetachSubtree of the root")
	}
	if !t.OnTree(v) {
		return nil
	}
	p := t.parent[v]
	t.detach(v)
	var orphans []topology.NodeID
	stack := []topology.NodeID{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.members[x] {
			orphans = append(orphans, x)
			delete(t.members, x)
		}
		stack = append(stack, topology.SortedKeys(t.children[x])...)
		delete(t.children, x)
		delete(t.parent, x)
	}
	t.PruneFrom(p)
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	return orphans
}

// Cost returns the tree cost: the sum of link costs over tree edges,
// accumulated in ascending child order to match Tree.Cost exactly.
func (t *TreeRef) Cost() float64 {
	sum := 0.0
	for _, v := range t.Nodes() {
		p, ok := t.parent[v]
		if !ok {
			continue
		}
		l, ok := t.g.Edge(v, p)
		if !ok {
			panic("mtree: tree edge not in graph")
		}
		sum += l.Cost
	}
	return sum
}

// Delay returns the multicast delay ml(v), +Inf for off-tree nodes.
//
// Deviation from the historical code: the chain is summed top-down
// (root toward v) instead of bottom-up. Float addition is not
// associative, so the two orders can differ in the last bit; the
// incremental cache extends parent sums downward, making top-down the
// canonical order (DESIGN.md §14). Summing the same edges in the same
// order is what lets the differential gate demand exact equality.
func (t *TreeRef) Delay(v topology.NodeID) float64 {
	if !t.OnTree(v) {
		return math.Inf(1)
	}
	var chain []topology.NodeID
	for v != t.root {
		chain = append(chain, v)
		v = t.parent[v]
	}
	sum := 0.0
	for i := len(chain) - 1; i >= 0; i-- {
		p := t.root
		if i+1 < len(chain) {
			p = chain[i+1]
		}
		l, _ := t.g.Edge(chain[i], p)
		sum += l.Delay
	}
	return sum
}

// TreeDelay returns the longest multicast delay over all members.
func (t *TreeRef) TreeDelay() float64 {
	max := 0.0
	for v := range t.members {
		if d := t.Delay(v); d > max {
			max = d
		}
	}
	return max
}

// PathToRoot returns the tree path v -> root inclusive, or nil when v is
// off tree.
func (t *TreeRef) PathToRoot(v topology.NodeID) []topology.NodeID {
	if !t.OnTree(v) {
		return nil
	}
	path := []topology.NodeID{v}
	for v != t.root {
		v = t.parent[v]
		path = append(path, v)
	}
	return path
}

// Edges returns the set of (child, parent) tree edges.
func (t *TreeRef) Edges() map[[2]topology.NodeID]bool {
	out := make(map[[2]topology.NodeID]bool, len(t.parent))
	for v, p := range t.parent {
		out[[2]topology.NodeID{v, p}] = true
	}
	return out
}

// Validate checks the structural invariants (see Tree.Validate).
func (t *TreeRef) Validate() error {
	for v, p := range t.parent {
		if _, ok := t.g.Edge(v, p); !ok {
			return fmt.Errorf("mtree: edge %d->%d not in graph", v, p)
		}
		if t.children[p] == nil || !t.children[p][v] {
			return fmt.Errorf("mtree: child map missing %d under %d", v, p)
		}
		seen := map[topology.NodeID]bool{v: true}
		cur := v
		for cur != t.root {
			next, ok := t.parent[cur]
			if !ok {
				return fmt.Errorf("mtree: %d's chain dead-ends at %d", v, cur)
			}
			if seen[next] {
				return fmt.Errorf("mtree: cycle through %d", next)
			}
			seen[next] = true
			cur = next
		}
	}
	for p, kids := range t.children {
		for c := range kids {
			if t.parent[c] != p {
				return fmt.Errorf("mtree: children map claims %d under %d", c, p)
			}
		}
	}
	for m := range t.members {
		if !t.OnTree(m) {
			return fmt.Errorf("mtree: member %d off tree", m)
		}
	}
	for v := range t.parent {
		if len(t.children[v]) == 0 && !t.members[v] {
			return fmt.Errorf("mtree: non-member leaf %d", v)
		}
	}
	return nil
}

// Graft splices path into the reference tree; see Tree.Graft.
func (t *TreeRef) Graft(path []topology.NodeID) (pruned []topology.NodeID, restructured bool) {
	if len(path) == 0 || !t.OnTree(path[0]) {
		panic("mtree: Graft path must start on the tree")
	}
	var orphans []topology.NodeID
	prev := path[0]
	for _, x := range path[1:] {
		switch {
		case !t.OnTree(x):
			t.attach(x, prev)
		case x == t.root, t.isAncestor(x, prev):
			if p, ok := t.Parent(x); !ok || p != prev {
				orphans = append(orphans, prev)
				restructured = true
			}
		case func() bool { p, ok := t.Parent(x); return ok && p == prev }():
			// The path follows an existing tree edge; nothing to do.
		default:
			oldParent := t.parent[x]
			t.reparent(x, prev)
			pruned = append(pruned, t.PruneFrom(oldParent)...)
			restructured = true
		}
		prev = x
	}
	for _, o := range orphans {
		pruned = append(pruned, t.PruneFrom(o)...)
	}
	return pruned, restructured
}

// isAncestor reports whether a lies on v's path to the root.
func (t *TreeRef) isAncestor(a, v topology.NodeID) bool {
	for {
		if v == a {
			return true
		}
		p, ok := t.parent[v]
		if !ok {
			return false
		}
		v = p
	}
}

// dcdmRef is the historical scanning DCDM: a scalar maxUL rebuilt by a
// full member rescan on every leave, and a graft scan that recomputes
// each candidate's tree delay by walking the parent chain.
type dcdmRef struct {
	g       *topology.Graph
	root    topology.NodeID
	kappa   float64
	absMax  float64
	tree    *TreeRef
	spDelay *topology.AllPairs
	spCost  *topology.AllPairs
	maxUL   float64
}

// newDCDMRef mirrors NewDCDM over the reference tree.
func newDCDMRef(g *topology.Graph, root topology.NodeID, kappa float64, spDelay, spCost *topology.AllPairs) *dcdmRef {
	if !(kappa >= 1) {
		panic(fmt.Sprintf("mtree: DCDM kappa %g is not at least 1: it would reject every tree", kappa))
	}
	return &dcdmRef{
		g:       g,
		root:    root,
		kappa:   kappa,
		tree:    NewTreeRef(g, root),
		spDelay: spDelay,
		spCost:  spCost,
	}
}

// SetQoSBudget mirrors DCDM.SetQoSBudget.
func (d *dcdmRef) SetQoSBudget(budget float64) {
	if budget <= 0 {
		d.absMax = 0
		return
	}
	d.absMax = budget
}

// Tree returns the live reference tree.
func (d *dcdmRef) Tree() *TreeRef { return d.tree }

// Bound mirrors DCDM.Bound against the scalar maxUL.
func (d *dcdmRef) Bound() float64 {
	if d.absMax > 0 {
		return d.absMax
	}
	if math.IsInf(d.kappa, 1) {
		return math.Inf(1)
	}
	return d.kappa * d.maxUL
}

// UnicastDelay mirrors DCDM.UnicastDelay.
func (d *dcdmRef) UnicastDelay(v topology.NodeID) float64 {
	return d.spDelay.Row(d.root).Delay[v]
}

// Join is the historical join: identical decisions, no caches.
func (d *dcdmRef) Join(s topology.NodeID) JoinResult {
	res := JoinResult{Member: s}
	ul := d.UnicastDelay(s)
	if d.tree.OnTree(s) {
		res.AlreadyOn = true
		d.tree.SetMember(s, true)
		if ul > d.maxUL {
			d.maxUL = ul
		}
		return res
	}
	bound := d.Bound()
	var path []topology.NodeID
	if ul > bound {
		path = d.spDelay.Row(d.root).To(s)
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
	if ul > d.maxUL {
		d.maxUL = ul
	}
	return res
}

// bestGraftPath is the historical scan: every candidate's tree delay is
// recomputed by a parent-chain walk, both rows are considered for each
// node in turn (cost row first), and no candidate is ever skipped.
func (d *dcdmRef) bestGraftPath(s topology.NodeID, bound float64) []topology.NodeID {
	type cand struct {
		cost, ml float64
		node     topology.NodeID
		sp       *topology.Paths
	}
	var best *cand
	consider := func(v topology.NodeID, sp *topology.Paths) {
		if !sp.Reachable(v) {
			return
		}
		ml := d.tree.Delay(v) + sp.Delay[v]
		if ml > bound {
			return
		}
		c := cand{cost: sp.Cost[v], ml: ml, node: v, sp: sp}
		better := best == nil
		if !better {
			switch {
			case c.cost < best.cost:
				better = true
			case best.cost < c.cost:
			case c.ml < best.ml:
				better = true
			case best.ml < c.ml:
			default:
				better = c.node < best.node
			}
		}
		if better {
			best = &c
		}
	}
	for _, v := range d.tree.Nodes() {
		consider(v, d.spCost.Row(s))  // P_lc(s, v)
		consider(v, d.spDelay.Row(s)) // P_sl(s, v)
	}
	if best == nil {
		sp := d.spDelay.Row(d.root)
		return sp.To(s)
	}
	path := best.sp.To(best.node)
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Leave is the historical leave: prune, then rebuild the bound with a
// full member rescan.
func (d *dcdmRef) Leave(s topology.NodeID) LeaveResult {
	res := LeaveResult{Member: s, Pruned: d.tree.Leave(s)}
	d.recomputeMaxUL()
	return res
}

// DetachSubtree mirrors DCDM.DetachSubtree with the full rescan.
func (d *dcdmRef) DetachSubtree(v topology.NodeID) []topology.NodeID {
	orphans := d.tree.DetachSubtree(v)
	d.recomputeMaxUL()
	return orphans
}

// Rebase mirrors DCDM.Rebase with the full rescan.
func (d *dcdmRef) Rebase() { d.recomputeMaxUL() }

// recomputeMaxUL rebuilds the scalar bound input from the member set.
func (d *dcdmRef) recomputeMaxUL() {
	d.maxUL = 0
	for _, m := range d.tree.Members() {
		if ul := d.UnicastDelay(m); ul > d.maxUL {
			d.maxUL = ul
		}
	}
}
