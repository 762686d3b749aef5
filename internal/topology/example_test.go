package topology_test

import (
	"fmt"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// Example builds a small graph and finds the delay- and cost-optimal
// routes — the paper's P_sl and P_lc, which DCDM considers as graft
// candidates.
func Example() {
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 10) // fast, expensive
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 2, 5, 1) // slow, cheap
	g.MustAddEdge(2, 3, 5, 1)

	psl := topology.NewLazyAllPairs(g, topology.ByDelay).Row(0)
	plc := topology.NewLazyAllPairs(g, topology.ByCost).Row(0)
	fmt.Println("P_sl(0,3):", psl.To(3), "delay", psl.Delay[3], "cost", psl.Cost[3])
	fmt.Println("P_lc(0,3):", plc.To(3), "delay", plc.Delay[3], "cost", plc.Cost[3])
	// Output:
	// P_sl(0,3): [0 1 3] delay 2 cost 20
	// P_lc(0,3): [0 2 3] delay 10 cost 2
}

// ExampleWaxman generates the paper's Fig. 7 topology model.
func ExampleWaxman() {
	rng := rng.New(3)
	wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("nodes:", wg.N(), "connected:", wg.Connected())
	// Output:
	// nodes: 100 connected: true
}

// ExampleTransitStub generates a GT-ITM-style hierarchical topology.
func ExampleTransitStub() {
	rng := rng.New(1)
	g, info, err := topology.TransitStub(topology.DefaultTransitStub(), rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("nodes:", g.N(), "transit:", len(info.TransitNodes()), "connected:", g.Connected())
	// Output:
	// nodes: 112 transit: 16 connected: true
}
