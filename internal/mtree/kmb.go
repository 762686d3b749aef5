package mtree

import (
	"cmp"
	"math"
	"slices"

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
	isTerminal := make([]bool, g.N())
	isTerminal[root] = true
	terminals := []topology.NodeID{root}
	for _, m := range members {
		if !isTerminal[m] {
			isTerminal[m] = true
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

	// Step 3: expand closure edges into real paths; the subgraph is
	// their links, each once, in Kruskal order: by link cost, ties by
	// endpoints.
	type edge struct {
		cost float64
		u, v topology.NodeID
	}
	var edges []edge
	for _, ce := range closureMST {
		path := spCost.Row(ce.u).To(ce.v)
		for i := 1; i < len(path); i++ {
			u, v := min(path[i-1], path[i]), max(path[i-1], path[i])
			l, _ := g.Edge(u, v)
			edges = append(edges, edge{l.Cost, u, v})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	edges = slices.Compact(edges)

	// Step 4: Kruskal MST over the subgraph.
	parent := make([]topology.NodeID, g.N())
	for v := range parent {
		parent[v] = topology.NodeID(v)
	}
	var find func(topology.NodeID) topology.NodeID
	find = func(x topology.NodeID) topology.NodeID {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	adj := make([][]topology.NodeID, g.N())
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}

	// Step 5: prune non-terminal leaves; a pruned leaf's neighbour may
	// become one in turn. The MST is a tree, so what remains is the
	// unique subtree spanning the terminals, whatever the pruning order.
	for v := range adj {
		for u := topology.NodeID(v); len(adj[u]) == 1 && !isTerminal[u]; {
			peer := adj[u][0]
			adj[u] = nil
			adj[peer] = slices.DeleteFunc(adj[peer], func(x topology.NodeID) bool { return x == u })
			u = peer
		}
	}

	// Orient from the root into a Tree (deterministic BFS).
	queue := []topology.NodeID{root}
	visited := make([]bool, g.N())
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs := slices.Clone(adj[u])
		slices.Sort(nbrs)
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
	return tree
}
