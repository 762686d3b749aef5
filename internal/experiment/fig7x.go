package experiment

import (
	"fmt"
	"io"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// Fig7xConfig parameterises the topology-sensitivity companion to
// Fig. 7: the same DCDM/KMB/SPT comparison run across topology
// families (the paper's Waxman model, GT-ITM-style flat random graphs,
// a hierarchical transit-stub, and the fixed ARPANET), to check that
// the paper's conclusions do not hinge on the Waxman generator.
type Fig7xConfig struct {
	GroupSize int // members per run (clamped to the topology size)
	Seeds     int
	Kappa     float64 // DCDM constraint (default 1.5, the moderate level)
	// Parallel bounds the worker goroutines fanning the (family, seed)
	// shards out: 0 means GOMAXPROCS, 1 the pure serial path.
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DefaultFig7x returns a moderate configuration.
func DefaultFig7x() Fig7xConfig {
	return Fig7xConfig{GroupSize: 20, Seeds: 5, Kappa: 1.5}
}

// Fig7xFamilies lists the topology families swept.
var Fig7xFamilies = []string{"waxman100", "random50-deg3", "random50-deg5", "transitstub112", "arpanet20"}

func buildFamily(name string, seed int64) *topology.Graph {
	rng := rng.New(seed)
	switch name {
	case "waxman100":
		wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
		if err != nil {
			panic(err)
		}
		return wg.Graph
	case "random50-deg3":
		g, err := topology.Random(topology.DefaultRandom(50, 3), rng)
		if err != nil {
			panic(err)
		}
		return g
	case "random50-deg5":
		g, err := topology.Random(topology.DefaultRandom(50, 5), rng)
		if err != nil {
			panic(err)
		}
		return g
	case "transitstub112":
		g, _, err := topology.TransitStub(topology.DefaultTransitStub(), rng)
		if err != nil {
			panic(err)
		}
		return g
	case "arpanet20":
		return topology.Arpanet()
	default:
		panic("experiment: unknown family " + name)
	}
}

// fig7xTable has one row per (family, algorithm): cost(alg)/cost(SPT)
// (measure 0) and delay(alg)/delay(SPT) (1) per seed, normalised to SPT
// on the same instance so families of very different scales compare.
var fig7xTable = &spec{
	order: [maxAxes][]string{Fig7xFamilies, algorithms},
	csv: []col{
		{"family", axis, 0}, {"algorithm", axis, 1},
		{"cost_vs_spt", mean, 0}, {"delay_vs_spt", mean, 1},
	},
	flat: &flat{
		title: "Tree quality across topology families (relative to SPT = 1.00)",
		head:  fmt.Sprintf("%-16s %-6s %14s %14s", "family", "algo", "cost/SPT", "delay/SPT"),
		row:   "%-16s %-6s %14.3f %14.3f\n",
		show:  []ref{{axis, 0}, {axis, 1}, {mean, 0}, {mean, 1}},
	},
}

// RunFig7x executes the sweep.
func RunFig7x(cfg Fig7xConfig) Table {
	if cfg.Kappa == 0 {
		cfg.Kappa = 1.5
	}
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(fig7xTable, runner.Map(opts, len(Fig7xFamilies)*cfg.Seeds, func(j int) []obs {
		family := Fig7xFamilies[j/cfg.Seeds]
		seed := j % cfg.Seeds
		g := buildFamily(family, int64(seed))
		spDelay, spCost := shardTables(g)
		size := cfg.GroupSize
		if size >= g.N() {
			size = g.N() - 2
		}
		wl := rng.New(int64(seed) * 977)
		members := pickMembers(wl, g.N(), size, 0)

		spt := mtree.SPT(g, 0, members, spDelay)
		kmb := mtree.KMB(g, 0, members, spCost)
		dcdm := mtree.NewDCDM(g, 0, cfg.Kappa, spDelay, spCost)
		for _, m := range members {
			dcdm.Join(m)
		}
		baseCost, baseDelay := spt.Cost(), spt.TreeDelay()
		if baseCost <= 0 || baseDelay <= 0 {
			return nil
		}
		return []obs{
			{Key{family, "DCDM"}, vals{dcdm.Tree().Cost() / baseCost, dcdm.Tree().TreeDelay() / baseDelay}},
			{Key{family, "KMB"}, vals{kmb.Cost() / baseCost, kmb.TreeDelay() / baseDelay}},
			{Key{family, "SPT"}, vals{1, 1}},
		}
	}))
}

// WriteFig7x prints the study: cost and delay relative to SPT (=1.00)
// per family.
func WriteFig7x(w io.Writer, t Table) { writeFlat(w, t) }
