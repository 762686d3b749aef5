// Placement: where should the ISP install the m-router? (§IV-A)
//
// The paper offers three heuristics — least average delay, largest
// degree, and a node on a diameter path — and notes none dominates
// universally. This example scores all three against random placement
// on fresh Waxman domains, then shows the per-topology winner varying.
//
//	go run ./examples/placement
package main

import (
	"fmt"
	"os"
	"scmp/internal/rng"

	"scmp/internal/experiment"
	"scmp/internal/mtree"
	"scmp/internal/topology"
)

func main() {
	cfg := experiment.PlacementConfig{Nodes: 60, GroupSize: 15, Seeds: 4, Trials: 8, Kappa: 1.5}
	points := experiment.RunPlacement(cfg)
	experiment.WritePlacement(os.Stdout, points)

	// Per-topology winners: the paper observes "there is no such
	// location of the m-router that it has the best performance under
	// all conditions".
	fmt.Println("\nper-topology winners (DCDM tree cost):")
	for seed := int64(0); seed < 4; seed++ {
		rng := rng.New(seed)
		wg, err := topology.Waxman(topology.DefaultWaxman(cfg.Nodes), rng)
		if err != nil {
			panic(err)
		}
		g := wg.Graph
		spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
		spCost := topology.NewLazyAllPairs(g, topology.ByCost)
		members := make([]topology.NodeID, 0, cfg.GroupSize)
		for _, v := range rng.Perm(g.N())[:cfg.GroupSize] {
			members = append(members, topology.NodeID(v))
		}
		bestRule, bestCost := "", 0.0
		for _, rule := range experiment.PlacementRules {
			root := experiment.Place(rule, g, rng)
			d := mtree.NewDCDM(g, root, cfg.Kappa, spDelay, spCost)
			for _, m := range members {
				if m != root {
					d.Join(m)
				}
			}
			cost := d.Tree().Cost()
			fmt.Printf("  topology %d, %-16s root=%2d cost=%8.0f\n", seed, rule, root, cost)
			if bestRule == "" || cost < bestCost {
				bestRule, bestCost = rule, cost
			}
		}
		fmt.Printf("  topology %d winner: %s\n", seed, bestRule)
	}
}
