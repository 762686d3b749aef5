// Package mtree implements rooted multicast trees over a topology graph
// and the three tree-construction algorithms compared in the paper's
// Fig. 7: DCDM (the authors' Delay-Constrained Dynamic Multicast
// heuristic, used by SCMP), KMB (the Kou–Markowsky–Berman Steiner-tree
// approximation, the min-cost baseline) and SPT (shortest-delay-path
// tree, the DVMRP/MOSPF/CBT baseline).
//
// Tree is an incremental engine: all per-node state lives in dense
// slices indexed by NodeID (parent array, sorted child lists, a
// membership bitset) and the multicast delay ml(v) of every on-tree
// node is maintained as a cache that mutations extend or rewrite, so
// OnTree/IsMember/Delay are O(1) and the sorted Nodes/Members views are
// rebuilt at most once per mutation. The historical map-backed
// implementation survives as TreeRef (ref_test.go) and backs the
// differential equivalence gate in equiv_test.go.
package mtree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"scmp/internal/topology"
)

// Parent-array sentinels. On-tree nodes have parent >= 0, except the
// root which carries noParent; everything else is offTree.
const (
	offTree  topology.NodeID = -2
	noParent topology.NodeID = -1
)

// Tree is a multicast tree rooted at the m-router. Every on-tree node
// except the root has exactly one upstream (parent); the set of member
// nodes marks routers whose subnets contain group members. Non-member
// relay nodes may appear anywhere except as leaves (the algorithms prune
// non-member leaves).
//
// Accessor contract: Children, Nodes, Members and the slices returned
// by PruneFrom/Leave are views into state the tree owns and
// rebuilds in place — they are valid until the next mutation and must
// not be modified or retained by the caller. (Every pre-existing caller
// either iterates immediately or copies; packet.BuildSubtree copies.)
type Tree struct {
	g    *topology.Graph
	root topology.NodeID

	parent   []topology.NodeID   // offTree / noParent sentinels, see above
	children [][]topology.NodeID // sorted child lists; capacity retained across detach
	member   []uint64            // membership bitset
	ml       []float64           // cached multicast delay root->v (top-down summation)

	size    int // on-tree node count, root included
	nMember int

	nodesView    []topology.NodeID // sorted on-tree nodes, rebuilt when stale
	nodesStale   bool
	membersView  []topology.NodeID // sorted members, rebuilt when stale
	membersStale bool

	pruneScratch []topology.NodeID // backing for PruneFrom/Leave results
	walkScratch  []topology.NodeID // DFS stack for reparent/DetachSubtree
}

// NewTree returns a tree containing only the root (the m-router).
func NewTree(g *topology.Graph, root topology.NodeID) *Tree {
	if root < 0 || int(root) >= g.N() {
		panic(fmt.Sprintf("mtree: root %d out of range", root))
	}
	n := g.N()
	t := &Tree{
		g:            g,
		root:         root,
		parent:       make([]topology.NodeID, n),
		children:     make([][]topology.NodeID, n),
		member:       make([]uint64, (n+63)/64),
		ml:           make([]float64, n),
		size:         1,
		nodesStale:   true,
		membersStale: true,
	}
	for i := range t.parent {
		t.parent[i] = offTree
		t.ml[i] = math.Inf(1)
	}
	t.parent[root] = noParent
	t.ml[root] = 0
	return t
}

// Root returns the tree root (the m-router).
func (t *Tree) Root() topology.NodeID { return t.root }

// OnTree reports whether v is currently on the tree.
func (t *Tree) OnTree(v topology.NodeID) bool {
	return v >= 0 && int(v) < len(t.parent) && t.parent[v] != offTree
}

// Parent returns v's upstream router; ok is false for the root and for
// off-tree nodes.
func (t *Tree) Parent(v topology.NodeID) (topology.NodeID, bool) {
	if v < 0 || int(v) >= len(t.parent) || t.parent[v] < 0 {
		return 0, false
	}
	return t.parent[v], true
}

// Children returns v's downstream routers, sorted. The slice is the
// tree's own sorted child list — valid until the next mutation.
func (t *Tree) Children(v topology.NodeID) []topology.NodeID {
	if v < 0 || int(v) >= len(t.children) {
		return nil
	}
	return t.children[v]
}

// IsMember reports whether v is marked as a member router.
func (t *Tree) IsMember(v topology.NodeID) bool {
	if v < 0 || int(v) >= len(t.parent) {
		return false
	}
	return t.member[v>>6]&(1<<(uint(v)&63)) != 0
}

// SetMember marks or unmarks v as a member router. v must be on the tree
// to be marked.
func (t *Tree) SetMember(v topology.NodeID, member bool) {
	if member {
		if !t.OnTree(v) {
			panic(fmt.Sprintf("mtree: SetMember(%d) off tree", v))
		}
		if !t.IsMember(v) {
			t.member[v>>6] |= 1 << (uint(v) & 63)
			t.nMember++
			t.membersStale = true
		}
	} else if t.IsMember(v) {
		t.member[v>>6] &^= 1 << (uint(v) & 63)
		t.nMember--
		t.membersStale = true
	}
}

// Members returns the member routers, sorted. The slice is a shared
// view rebuilt in place — valid until the next membership change.
func (t *Tree) Members() []topology.NodeID {
	if t.membersStale {
		t.membersView = t.membersView[:0]
		for wi, w := range t.member {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				t.membersView = append(t.membersView, topology.NodeID(wi<<6+b))
			}
		}
		t.membersStale = false
	}
	return t.membersView
}

// MemberCount returns the number of member routers in O(1).
func (t *Tree) MemberCount() int { return t.nMember }

// Nodes returns every on-tree node, sorted, root included. The slice is
// a shared view rebuilt in place — valid until the next mutation.
func (t *Tree) Nodes() []topology.NodeID {
	if t.nodesStale {
		t.nodesView = t.nodesView[:0]
		for v, p := range t.parent {
			if p != offTree {
				t.nodesView = append(t.nodesView, topology.NodeID(v))
			}
		}
		t.nodesStale = false
	}
	return t.nodesView
}

// Size returns the number of on-tree nodes.
func (t *Tree) Size() int { return t.size }

// insertChild adds c to p's sorted child list, keeping it sorted.
func (t *Tree) insertChild(p, c topology.NodeID) {
	kids := t.children[p]
	i, _ := slices.BinarySearch(kids, c)
	kids = append(kids, 0) // amortised growth; capacity is retained across detach, so steady-state churn re-uses it
	copy(kids[i+1:], kids[i:])
	kids[i] = c
	t.children[p] = kids
}

// removeChild deletes c from p's sorted child list, keeping capacity.
func (t *Tree) removeChild(p, c topology.NodeID) {
	kids := t.children[p]
	i, ok := slices.BinarySearch(kids, c)
	if !ok {
		return
	}
	copy(kids[i:], kids[i+1:])
	t.children[p] = kids[:len(kids)-1]
}

// attach links child under parent; both must be adjacent in the graph
// and child must not already be on the tree. The child's cached
// multicast delay extends the parent's — the incremental half of the
// delay-cache invariant (DESIGN.md §14).
func (t *Tree) attach(child, parent topology.NodeID) {
	if t.OnTree(child) {
		panic(fmt.Sprintf("mtree: attach(%d) already on tree", child))
	}
	if !t.OnTree(parent) {
		panic(fmt.Sprintf("mtree: attach under off-tree parent %d", parent))
	}
	l, ok := t.g.Edge(child, parent)
	if !ok {
		panic(fmt.Sprintf("mtree: attach %d under non-adjacent %d", child, parent))
	}
	t.parent[child] = parent
	t.insertChild(parent, child)
	t.ml[child] = t.ml[parent] + l.Delay
	t.size++
	t.nodesStale = true
}

// detach unlinks v from its parent, leaving v's subtree hanging off v.
func (t *Tree) detach(v topology.NodeID) {
	p := t.parent[v]
	if p < 0 {
		return
	}
	t.parent[v] = offTree
	t.removeChild(p, v)
	t.size--
	t.nodesStale = true
}

// reparent moves on-tree node v (and its whole subtree) under newParent.
func (t *Tree) reparent(v, newParent topology.NodeID) {
	if !t.OnTree(v) || v == t.root {
		panic(fmt.Sprintf("mtree: reparent(%d) invalid", v))
	}
	l, ok := t.g.Edge(v, newParent)
	if !ok {
		panic(fmt.Sprintf("mtree: reparent %d under non-adjacent %d", v, newParent))
	}
	t.detach(v)
	t.parent[v] = newParent
	t.insertChild(newParent, v)
	t.size++
	t.nodesStale = true
	t.refreshSubtreeDelay(v, t.ml[newParent]+l.Delay)
}

// refreshSubtreeDelay rewrites the cached multicast delay of v and its
// whole subtree after v acquired a new upstream. Each node's delay is
// its parent's cached value plus the connecting link's delay — the same
// left-to-right summation a fresh root-down walk performs — so cached
// values stay bit-identical to recomputation. (A numeric delta applied
// subtree-wide would drift: float addition is not associative.)
func (t *Tree) refreshSubtreeDelay(v topology.NodeID, dv float64) {
	t.ml[v] = dv
	stack := append(t.walkScratch[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.children[x] {
			l, _ := t.g.Edge(c, x)
			t.ml[c] = t.ml[x] + l.Delay
			stack = append(stack, c) // walkScratch-backed; growth is retained via the storeback below
		}
	}
	t.walkScratch = stack[:0]
}

// PruneFrom removes v if it is a removable leaf (non-member, childless,
// not root), then walks upstream removing newly exposed removable leaves;
// this is the hop-by-hop PRUNE of §III-C and the leave handling of
// §III-D. It returns the nodes removed, bottom-up; the slice is scratch
// the tree owns, valid until the next mutation.
func (t *Tree) PruneFrom(v topology.NodeID) []topology.NodeID {
	removed := t.pruneScratch[:0]
	for v != t.root && t.OnTree(v) && !t.IsMember(v) && len(t.children[v]) == 0 {
		p := t.parent[v]
		t.detach(v)
		removed = append(removed, v) // scratch append; capacity is retained across calls
		v = p
	}
	t.pruneScratch = removed
	if len(removed) == 0 {
		return nil
	}
	return removed
}

// Leave unmarks v as a member and prunes any branch it no longer
// justifies. It returns the routers removed from the tree (tree-owned
// scratch, valid until the next mutation).
func (t *Tree) Leave(v topology.NodeID) []topology.NodeID {
	t.SetMember(v, false)
	return t.PruneFrom(v)
}

// DetachSubtree removes v and its entire subtree from the tree — the
// local-repair primitive for a subtree that lost its upstream link. The
// relay chain above v that served only this subtree is pruned back to a
// member or a fork (as if the subtree had issued a PRUNE). It returns
// the member routers that were stranded, in ascending order, so the
// caller can re-graft them. Detaching an off-tree node is a no-op;
// detaching the root is nonsensical and panics.
func (t *Tree) DetachSubtree(v topology.NodeID) []topology.NodeID {
	if v == t.root {
		panic("mtree: DetachSubtree of the root")
	}
	if !t.OnTree(v) {
		return nil
	}
	p := t.parent[v]
	t.detach(v)
	var orphans []topology.NodeID
	stack := append(t.walkScratch[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.IsMember(x) {
			orphans = append(orphans, x)
			t.SetMember(x, false)
		}
		stack = append(stack, t.children[x]...)
		t.children[x] = t.children[x][:0]
		if x != v {
			t.parent[x] = offTree
			t.size--
		}
	}
	t.walkScratch = stack[:0]
	t.nodesStale = true
	t.PruneFrom(p)
	slices.Sort(orphans)
	return orphans
}

// Cost returns the tree cost: the sum of link costs over tree edges,
// accumulated in ascending child-id order (deterministic).
func (t *Tree) Cost() float64 {
	sum := 0.0
	for v, p := range t.parent {
		if p < 0 {
			continue
		}
		l, ok := t.g.Edge(topology.NodeID(v), p)
		if !ok {
			panic("mtree: tree edge not in graph")
		}
		sum += l.Cost
	}
	return sum
}

// Delay returns the multicast delay ml(v): the delay of the unique tree
// path from the root to v, read from the incremental cache. It returns
// +Inf for off-tree nodes. The cached value is the top-down (root
// toward v) left-to-right summation; see DESIGN.md §14 for why that
// order is the canonical one.
func (t *Tree) Delay(v topology.NodeID) float64 {
	if !t.OnTree(v) {
		return math.Inf(1)
	}
	return t.ml[v]
}

// TreeDelay returns the longest multicast delay over all members (the
// paper's "tree delay"). It is 0 for a tree with no members.
func (t *Tree) TreeDelay() float64 {
	max := 0.0
	for wi, w := range t.member {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if d := t.ml[wi<<6+b]; d > max {
				max = d
			}
		}
	}
	return max
}

// PathToRoot returns the tree path v -> root inclusive, or nil when v is
// off tree.
func (t *Tree) PathToRoot(v topology.NodeID) []topology.NodeID {
	if !t.OnTree(v) {
		return nil
	}
	return t.AppendPathToRoot(nil, v)
}

// AppendPathToRoot appends PathToRoot(v) to out (pass reusable scratch
// to avoid allocation); out comes back unchanged when v is off the tree.
func (t *Tree) AppendPathToRoot(out []topology.NodeID, v topology.NodeID) []topology.NodeID {
	if !t.OnTree(v) {
		return out
	}
	out = append(out, v)
	for v != t.root {
		v = t.parent[v]
		out = append(out, v)
	}
	return out
}

// Edges returns the set of (child, parent) tree edges, for visualisation.
func (t *Tree) Edges() map[[2]topology.NodeID]bool {
	out := make(map[[2]topology.NodeID]bool, t.size-1)
	for v, p := range t.parent {
		if p >= 0 {
			out[[2]topology.NodeID{topology.NodeID(v), p}] = true
		}
	}
	return out
}

// Validate checks the structural invariants: every non-root node has a
// parent chain reaching the root with no cycles, every tree edge exists
// in the graph, child lists mirror the parent array, every member is on
// the tree, every leaf is a member or the root, and the size/member
// counters and the ml delay cache agree with recomputation. It must
// return errors (not hang) on a corrupt tree, so chain walks are
// step-capped.
func (t *Tree) Validate() error {
	n := len(t.parent)
	for vi, p := range t.parent {
		v := topology.NodeID(vi)
		if p < 0 {
			continue
		}
		if _, ok := t.g.Edge(v, p); !ok {
			return fmt.Errorf("mtree: edge %d->%d not in graph", v, p)
		}
		if _, ok := slices.BinarySearch(t.children[p], v); !ok {
			return fmt.Errorf("mtree: child list missing %d under %d", v, p)
		}
		cur, steps := v, 0
		for cur != t.root {
			next := t.parent[cur]
			if next < 0 {
				return fmt.Errorf("mtree: %d's chain dead-ends at %d", v, cur)
			}
			if steps++; steps > n {
				return fmt.Errorf("mtree: cycle through %d", next)
			}
			cur = next
		}
	}
	size := 0
	for pi, kids := range t.children {
		p := topology.NodeID(pi)
		if t.parent[p] != offTree {
			size++
		}
		if !slices.IsSorted(kids) {
			return fmt.Errorf("mtree: child list of %d unsorted", p)
		}
		for _, c := range kids {
			if c < 0 || int(c) >= n || t.parent[c] != p {
				return fmt.Errorf("mtree: child list claims %d under %d", c, p)
			}
		}
	}
	if size != t.size {
		return fmt.Errorf("mtree: size counter %d, counted %d", t.size, size)
	}
	members := 0
	for _, m := range t.Members() {
		members++
		if !t.OnTree(m) {
			return fmt.Errorf("mtree: member %d off tree", m)
		}
	}
	if members != t.nMember {
		return fmt.Errorf("mtree: member counter %d, counted %d", t.nMember, members)
	}
	for vi, p := range t.parent {
		v := topology.NodeID(vi)
		if p >= 0 && len(t.children[v]) == 0 && !t.IsMember(v) {
			return fmt.Errorf("mtree: non-member leaf %d", v)
		}
	}
	// Delay cache: structure is a rooted tree at this point, so the
	// parent-extension identity must hold exactly at every edge.
	if t.ml[t.root] != 0 {
		return fmt.Errorf("mtree: root delay cache %g, want 0", t.ml[t.root])
	}
	for vi, p := range t.parent {
		if p < 0 {
			continue
		}
		v := topology.NodeID(vi)
		l, _ := t.g.Edge(v, p)
		if want := t.ml[p] + l.Delay; t.ml[v] != want { //scmplint:ignore floatcmp — exactness IS the invariant: the cache only ever stores this same parent-extension sum, so any bit difference means a stale entry
			return fmt.Errorf("mtree: stale delay cache at %d: %g, want %g", v, t.ml[v], want)
		}
	}
	return nil
}
