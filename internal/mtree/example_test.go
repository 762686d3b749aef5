package mtree_test

import (
	"fmt"
	"math"

	"scmp/internal/mtree"
	"scmp/internal/topology"
)

// rails builds the two-rail topology used across the documentation: a
// fast expensive path 0-1-2 and a slow cheap path 0-3-2.
func rails() *topology.Graph {
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 10)
	g.MustAddEdge(0, 3, 6, 1)
	g.MustAddEdge(3, 2, 6, 1)
	return g
}

// ExampleDCDM shows how the delay constraint changes the tree: the
// tightest constraint takes the fast rail, no constraint takes the
// cheap one. Both groups read one pair of routing tables, filled as
// they are first read.
func ExampleDCDM() {
	g := rails()
	spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	tight := mtree.NewDCDM(g, 0, 1, spDelay, spCost)
	tight.Join(2)
	fmt.Printf("tightest: cost=%.0f delay=%.0f\n", tight.Tree().Cost(), tight.Tree().TreeDelay())

	loose := mtree.NewDCDM(g, 0, math.Inf(1), spDelay, spCost)
	loose.Join(2)
	fmt.Printf("loosest:  cost=%.0f delay=%.0f\n", loose.Tree().Cost(), loose.Tree().TreeDelay())
	// Output:
	// tightest: cost=20 delay=2
	// loosest:  cost=2 delay=12
}

func ExampleDCDM_Leave() {
	g := rails()
	d := mtree.NewDCDM(g, 0, 1, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
	d.Join(2)
	res := d.Leave(2)
	fmt.Println("pruned routers:", res.Pruned)
	fmt.Println("tree size:", d.Tree().Size())
	// Output:
	// pruned routers: [2 1]
	// tree size: 1
}

func ExampleKMB() {
	g := rails()
	tr := mtree.KMB(g, 0, []topology.NodeID{2}, topology.NewLazyAllPairs(g, topology.ByCost))
	fmt.Printf("cost=%.0f (the cheap rail)\n", tr.Cost())
	// Output:
	// cost=2 (the cheap rail)
}

func ExampleSPT() {
	g := rails()
	tr := mtree.SPT(g, 0, []topology.NodeID{2}, topology.NewLazyAllPairs(g, topology.ByDelay))
	fmt.Printf("delay=%.0f (the fast rail)\n", tr.TreeDelay())
	// Output:
	// delay=2 (the fast rail)
}
