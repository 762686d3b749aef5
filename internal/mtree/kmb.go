package mtree

import (
	"math"
	"sort"

	"scmp/internal/topology"
)

// KMB builds a Steiner tree over {root} ∪ members using the
// Kou–Markowsky–Berman approximation (the paper's min-cost baseline,
// ref [19]; 2(1-1/l)-approximation on tree cost, delay-oblivious):
//
//  1. Build the metric closure on the terminals under least-cost
//     distances.
//  2. Take its minimum spanning tree.
//  3. Expand every closure edge into its underlying least-cost path,
//     forming a subgraph of g.
//  4. Take a minimum spanning tree of that subgraph.
//  5. Repeatedly delete non-terminal leaves.
//
// spCost is g's least-cost table. The result is rooted at root with all
// members marked.
func KMB(g *topology.Graph, root topology.NodeID, members []topology.NodeID, spCost *topology.AllPairs) *Tree {
	terminals := []topology.NodeID{root}
	seen := map[topology.NodeID]bool{root: true}
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			terminals = append(terminals, m)
		}
	}
	tree := NewTree(g, root)
	if len(terminals) == 1 {
		return tree
	}

	// Step 1+2: Prim's MST over the metric closure of the terminals.
	type cedge struct{ u, v topology.NodeID }
	inMST := map[topology.NodeID]bool{root: true}
	bestDist := make(map[topology.NodeID]float64, len(terminals))
	bestFrom := make(map[topology.NodeID]topology.NodeID, len(terminals))
	for _, t := range terminals[1:] {
		bestDist[t] = spCost.Row(root).Dist[t]
		bestFrom[t] = root
	}
	var closureMST []cedge
	for len(inMST) < len(terminals) {
		pick := topology.NodeID(-1)
		pickDist := math.Inf(1)
		for _, t := range terminals {
			if inMST[t] {
				continue
			}
			switch d := bestDist[t]; {
			case pick == -1 || d < pickDist:
				pick, pickDist = t, d
			case pickDist < d:
				// strictly farther: keep the current pick
			case t < pick:
				pick, pickDist = t, d // exact tie on distance: lowest id
			}
		}
		if pick == -1 || math.IsInf(pickDist, 1) {
			break // unreachable terminal: return the partial tree
		}
		inMST[pick] = true
		closureMST = append(closureMST, cedge{bestFrom[pick], pick})
		for _, t := range terminals {
			if inMST[t] {
				continue
			}
			if d := spCost.Row(pick).Dist[t]; d < bestDist[t] {
				bestDist[t], bestFrom[t] = d, pick
			}
		}
	}

	// Step 3: expand closure edges into real paths; collect the subgraph.
	type edge struct{ u, v topology.NodeID }
	norm := func(a, b topology.NodeID) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	subEdges := map[edge]bool{}
	subNodes := map[topology.NodeID]bool{}
	for _, ce := range closureMST {
		path := spCost.Row(ce.u).To(ce.v)
		for i := 1; i < len(path); i++ {
			subEdges[norm(path[i-1], path[i])] = true
		}
		for _, n := range path {
			subNodes[n] = true
		}
	}

	// Step 4: Kruskal MST over the subgraph (by link cost).
	var edges []edge
	for e := range subEdges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		li, _ := g.Edge(edges[i].u, edges[i].v)
		lj, _ := g.Edge(edges[j].u, edges[j].v)
		if li.Cost < lj.Cost {
			return true
		}
		if lj.Cost < li.Cost {
			return false
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	parent := map[topology.NodeID]topology.NodeID{}
	var find func(topology.NodeID) topology.NodeID
	find = func(x topology.NodeID) topology.NodeID {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for n := range subNodes {
		parent[n] = n
	}
	adj := map[topology.NodeID][]topology.NodeID{}
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}

	// Step 5: prune non-terminal leaves (iterate to a fixed point).
	isTerminal := map[topology.NodeID]bool{}
	for _, t := range terminals {
		isTerminal[t] = true
	}
	for {
		removedAny := false
		for n, nbrs := range adj {
			if len(nbrs) == 1 && !isTerminal[n] {
				peer := nbrs[0]
				delete(adj, n)
				pn := adj[peer][:0]
				for _, x := range adj[peer] {
					if x != n {
						pn = append(pn, x)
					}
				}
				adj[peer] = pn
				removedAny = true
			}
		}
		if !removedAny {
			break
		}
	}

	// Orient from the root into a Tree (deterministic BFS).
	queue := []topology.NodeID{root}
	visited := map[topology.NodeID]bool{root: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs := append([]topology.NodeID(nil), adj[u]...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, v := range nbrs {
			if visited[v] {
				continue
			}
			visited[v] = true
			tree.attach(v, u)
			queue = append(queue, v)
		}
	}
	for _, t := range terminals[1:] {
		if tree.OnTree(t) {
			tree.SetMember(t, true)
		}
	}
	if tree.OnTree(root) {
		// Root is the m-router; membership of the root itself is implicit.
	}
	return tree
}
