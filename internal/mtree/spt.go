package mtree

import "scmp/internal/topology"

// SPT builds the shortest-delay-path tree: the union of the
// shortest-delay paths from the root to every member. This is the tree
// DVMRP, MOSPF and CBT all use in the paper's Fig. 7 comparison (with
// the CBT core placed at the source, the three trees coincide: every
// member hangs off the root by its shortest-delay path).
//
// spDelay is g's shortest-delay table.
func SPT(g *topology.Graph, root topology.NodeID, members []topology.NodeID, spDelay *topology.AllPairs) *Tree {
	sp := spDelay.Row(root)
	tree := NewTree(g, root)
	for _, m := range members {
		path := sp.To(m)
		if path == nil {
			continue // unreachable member: skip, like a partitioned domain
		}
		for i := 1; i < len(path); i++ {
			if !tree.OnTree(path[i]) {
				tree.attach(path[i], path[i-1])
			}
		}
		tree.SetMember(m, true)
	}
	return tree
}
