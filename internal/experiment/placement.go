package experiment

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// PlacementRules are the §IV-A heuristics for placing the m-router,
// plus a random-placement baseline:
//
//	rule 1: the node with the smallest average delay to all other nodes
//	rule 2: the node with the largest degree
//	rule 3: a node lying on a diameter path (we take its midpoint)
var PlacementRules = []string{"rule1-avgdelay", "rule2-degree", "rule3-diameter", "random"}

// PlacementConfig parameterises the placement study: Waxman topologies,
// random member sets, DCDM tree cost under each placement rule.
type PlacementConfig struct {
	Nodes     int
	GroupSize int
	Seeds     int     // topologies
	Trials    int     // member sets per topology
	Kappa     float64 // DCDM constraint (default 1.5)
	// Parallel bounds the worker goroutines fanning the per-seed shards
	// out: 0 means GOMAXPROCS, 1 the pure serial path.
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DefaultPlacement returns a paper-scale configuration.
func DefaultPlacement() PlacementConfig {
	return PlacementConfig{Nodes: 100, GroupSize: 20, Seeds: 5, Trials: 10, Kappa: 1.5}
}

// placementTable has one row per rule: DCDM tree cost (measure 0) and
// tree delay (1) over every (topology, member set) trial.
var placementTable = &spec{
	order: [maxAxes][]string{PlacementRules},
	csv: []col{
		{"rule", axis, 0},
		{"tree_cost_mean", mean, 0}, {"tree_cost_ci95", ci95, 0},
		{"tree_delay_mean", mean, 1}, {"tree_delay_ci95", ci95, 1},
	},
	flat: &flat{
		title: "m-router placement heuristics (DCDM tree quality)",
		head:  fmt.Sprintf("%-18s %18s %18s", "rule", "mean tree cost", "mean tree delay"),
		row:   "%-18s %18.0f %18.0f\n",
		show:  []ref{{axis, 0}, {mean, 0}, {mean, 1}},
	},
}

// Place returns the m-router node a rule selects on g. The random rule
// consumes rng.
func Place(rule string, g *topology.Graph, rng *rng.Rand) topology.NodeID {
	switch rule {
	case "rule1-avgdelay":
		return Center(g)
	case "rule2-degree":
		best := topology.NodeID(0)
		for u := 1; u < g.N(); u++ {
			if g.Degree(topology.NodeID(u)) > g.Degree(best) {
				best = topology.NodeID(u)
			}
		}
		return best
	case "rule3-diameter":
		_, path := g.Diameter()
		if len(path) == 0 {
			return 0
		}
		return path[len(path)/2]
	case "random":
		return topology.NodeID(rng.Intn(g.N()))
	default:
		panic("experiment: unknown placement rule " + rule)
	}
}

// RunPlacement executes the study: one row per rule, in rule order.
func RunPlacement(cfg PlacementConfig) Table {
	if cfg.Kappa == 0 {
		cfg.Kappa = 1.5
	}
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(placementTable, runner.Map(opts, cfg.Seeds, func(seed int) []obs {
		// The seed's Waxman instance (Fig. 7's, at the default size),
		// rebuilt here. The workload stream (random placement + member
		// sets) is derived from the seed independently of the topology
		// build.
		g := waxmanGraph(topology.DefaultWaxman(cfg.Nodes), seed)
		spDelay, spCost := shardTables(g)
		wl := rng.New(int64(seed)*6151 + 2)
		roots := make(map[string]topology.NodeID)
		for _, rule := range PlacementRules {
			roots[rule] = Place(rule, g, wl)
		}
		var out []obs
		for trial := 0; trial < cfg.Trials; trial++ {
			members := pickMembers(wl, g.N(), cfg.GroupSize, -1)
			for _, rule := range PlacementRules {
				root := roots[rule]
				d := mtree.NewDCDM(g, root, cfg.Kappa, spDelay, spCost)
				for _, m := range members {
					if m == root {
						continue
					}
					d.Join(m)
				}
				out = append(out, obs{Key{rule}, vals{d.Tree().Cost(), d.Tree().TreeDelay()}})
			}
		}
		return out
	}))
}

// WritePlacement prints the study as one row per rule, cheapest mean
// tree first.
func WritePlacement(w io.Writer, t Table) {
	t.Rows = slices.Clone(t.Rows)
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i].Samples[0].Mean() < t.Rows[j].Samples[0].Mean() })
	writeFlat(w, t)
}
