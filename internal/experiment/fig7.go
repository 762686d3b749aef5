package experiment

import (
	"io"
	"math"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// Fig7Config parameterises the tree-quality comparison of Fig. 7:
// Waxman topologies, group size swept, three delay-constraint levels,
// three algorithms (DCDM = SCMP's tree, KMB, SPT), averaged over seeds.
type Fig7Config struct {
	Nodes      int     // paper: 100
	Alpha      float64 // paper: 0.25
	Beta       float64 // paper: 0.2
	GroupSizes []int   // paper: 10..90 step 10
	Seeds      int     // paper: 10
	// Parallel bounds the worker goroutines fanning the per-seed shards
	// out: 0 means GOMAXPROCS, 1 the pure serial path. Results are
	// byte-identical either way.
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DefaultFig7 returns the paper's configuration.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		Nodes: 100, Alpha: 0.25, Beta: 0.2,
		GroupSizes: []int{10, 20, 30, 40, 50, 60, 70, 80, 90},
		Seeds:      10,
	}
}

// ConstraintLevels maps the paper's three delay-constraint levels to
// DCDM's bound multiplier.
var ConstraintLevels = []struct {
	Name  string
	Kappa float64
}{
	{"tightest", 1},
	{"moderate", 1.5},
	{"loosest", math.Inf(1)},
}

// algorithms are the tree builders Fig. 7 and fig7x compare.
var algorithms = []string{"DCDM", "KMB", "SPT"}

func levelNames() []string {
	names := make([]string, len(ConstraintLevels))
	for i, lvl := range ConstraintLevels {
		names[i] = lvl.Name
	}
	return names
}

// fig7Table has one row per (level, group size, algorithm): tree delay
// (measure 0) and tree cost (1) sampled across seeds, printed as the
// paper's panels — Fig. 7(a-c) tree delay and Fig. 7(d-f) tree cost, one
// row per group size, one column per algorithm.
var fig7Table = &spec{
	order: [maxAxes][]string{0: levelNames(), 2: algorithms},
	csv: []col{
		{"level", axis, 0}, {"groupsize", axis, 1}, {"algorithm", axis, 2},
		{"tree_delay_mean", mean, 0}, {"tree_delay_ci95", ci95, 0},
		{"tree_cost_mean", mean, 1}, {"tree_cost_ci95", ci95, 1},
	},
	grid: &grid{at: 1, head: "groupsize", rowW: 10, colW: 14, metrics: []metric{
		{"Tree delay — delay constraint %s", " %14.0f", []ref{{mean, 0}}},
		{"Tree cost — delay constraint %s", " %14.0f", []ref{{mean, 1}}},
	}},
}

// runFig7Shard executes one seed's full sweep on its own graph and
// tables. The member stream is derived from the seed independently of
// the topology build.
func runFig7Shard(cfg Fig7Config, seed int) []obs {
	g := waxmanGraph(topology.WaxmanConfig{N: cfg.Nodes, Alpha: cfg.Alpha, Beta: cfg.Beta, GridSize: 32767, Connect: true}, seed)
	spDelay, spCost := shardTables(g)
	root := topology.NodeID(0)
	memberRng := rng.New(int64(seed)*104729 + 1)
	var out []obs
	for _, size := range cfg.GroupSizes {
		if size >= g.N() { // root is excluded, so at most N-1 members exist
			continue
		}
		members := pickMembers(memberRng, g.N(), size, root)
		// KMB and SPT are constraint-oblivious; compute once and
		// record them under every level so each panel has all three
		// series, like the paper's plots.
		kmb := mtree.KMB(g, root, members, spCost)
		spt := mtree.SPT(g, root, members, spDelay)
		for _, lvl := range ConstraintLevels {
			d := mtree.NewDCDM(g, root, lvl.Kappa, spDelay, spCost)
			for _, m := range members {
				d.Join(m)
			}
			out = append(out,
				obs{Key{lvl.Name, size, "DCDM"}, vals{d.Tree().TreeDelay(), d.Tree().Cost()}},
				obs{Key{lvl.Name, size, "KMB"}, vals{kmb.TreeDelay(), kmb.Cost()}},
				obs{Key{lvl.Name, size, "SPT"}, vals{spt.TreeDelay(), spt.Cost()}})
		}
	}
	return out
}

// RunFig7 executes the sweep. Per-seed shards fan out over runner.Map
// and merge in seed order, so the aggregate matches a serial run exactly.
func RunFig7(cfg Fig7Config) Table {
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(fig7Table, runner.Map(opts, cfg.Seeds, func(seed int) []obs {
		return runFig7Shard(cfg, seed)
	}))
}

// WriteFig7 prints the sweep as the paper's panels.
func WriteFig7(w io.Writer, t Table) { writePivot(w, t, t.spec.grid.metrics...) }
