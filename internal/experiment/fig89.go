package experiment

import (
	"io"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// Protocols compared in Fig. 8/9, paper order.
var Protocols = []string{"SCMP", "DVMRP", "MOSPF", "CBT"}

// Fig89Config parameterises the network-wide comparison: for each of
// three topologies (ARPANET plus two random 50-node graphs with average
// degree 3 and 5), a group of the given size joins, then a single source
// sends one packet per second for SimTime seconds (§IV-B).
type Fig89Config struct {
	GroupSizes    []int    // paper: 8..40
	Seeds         int      // member/source placements per point
	SimTime       float64  // paper: 30 s
	DataRate      float64  // paper: 1 packet/s
	PruneLifetime des.Time // DVMRP prune timeout
	Topologies    []string // defaults to Fig89Topologies()
	// Parallel bounds the worker goroutines fanning the (topology, seed)
	// shards out: 0 means GOMAXPROCS, 1 the pure serial path. Results
	// are byte-identical either way (shards merge in canonical order).
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DefaultFig89 returns the paper's configuration.
func DefaultFig89() Fig89Config {
	return Fig89Config{
		GroupSizes:    []int{8, 12, 16, 20, 24, 28, 32, 36, 40},
		Seeds:         10,
		SimTime:       30,
		DataRate:      1,
		PruneLifetime: dvmrp.DefaultPruneLifetime,
		Topologies:    Fig89Topologies(),
	}
}

// fig89Table has one row per (topology, group size, protocol). Data
// overhead (measure 0) and protocol overhead (1) are in link-cost units
// over the whole run; 2 is the maximum end-to-end delay of delivered
// data packets; 3 counts member-deliveries that never happened (0 when
// the protocols converge, which they must).
var fig89Table = &spec{
	order: [maxAxes][]string{0: Fig89Topologies(), 2: Protocols},
	csv: []col{
		{"topology", axis, 0}, {"groupsize", axis, 1}, {"protocol", axis, 2},
		{"data_overhead_mean", mean, 0}, {"data_overhead_ci95", ci95, 0},
		{"proto_overhead_mean", mean, 1}, {"proto_overhead_ci95", ci95, 1},
		{"max_e2e_mean", mean, 2}, {"max_e2e_ci95", ci95, 2},
		{"undelivered", sum, 3},
	},
	grid: &grid{at: 1, head: "groupsize", rowW: 10, colW: 14, metrics: []metric{
		{"Data overhead (link-cost units) — %s", " %14.1f", []ref{{mean, 0}}},
		{"Protocol overhead (link-cost units) — %s", " %14.1f", []ref{{mean, 1}}},
		{"Maximum end-to-end delay (s) — %s", " %14.4f", []ref{{mean, 2}}},
	}},
}

// buildProtocol instantiates a protocol by name with the shared
// center node used as m-router / CBT core.
func buildProtocol(name string, center topology.NodeID, pruneLifetime des.Time) netsim.Protocol {
	switch name {
	case "SCMP":
		// The moderate constraint (bound 1.5x the farthest member's
		// unicast delay) lets DCDM trade a little delay for tree cost,
		// the regime the paper's Fig. 8 runs in: its data overhead is
		// "strongly correlated to the multicast tree cost".
		return core.New(core.Config{MRouter: center, Kappa: 1.5})
	case "DVMRP":
		return dvmrp.New(pruneLifetime)
	case "MOSPF":
		return mospf.New()
	case "CBT":
		return cbt.New(center)
	default:
		panic("experiment: unknown protocol " + name)
	}
}

// Center picks the shared m-router / core location: the node with the
// smallest average shortest-path delay to all others (placement rule 1
// of §IV-A). SCMP and CBT get the same center, as in the paper's setup.
func Center(g *topology.Graph) topology.NodeID { return rankedCenters(g, 1)[0] }

// runOne simulates one protocol run and returns (data overhead,
// protocol overhead, max end-to-end delay, undelivered member count).
func runOne(g *topology.Graph, protoName string, cfg Fig89Config,
	members []topology.NodeID, source, center topology.NodeID) (float64, float64, float64, int) {

	proto := buildProtocol(protoName, center, cfg.PruneLifetime)
	n := netsim.New(g, proto)

	// Members join over the first half second, then the group is stable
	// for the data phase, matching the paper's static member sets.
	for i, m := range members {
		m := m
		n.Sched.At(des.Time(float64(i)*0.01), func() { n.HostJoin(m, 1) })
	}
	var seqs []uint64
	for _, t := range sendTimes(cfg.SimTime, cfg.DataRate) {
		n.Sched.At(des.Time(t), func() {
			seqs = append(seqs, n.SendData(source, 1, packet.DefaultDataSize))
		})
	}
	n.RunUntil(des.Time(cfg.SimTime))
	n.Run() // drain in-flight packets

	undelivered := 0
	for _, seq := range seqs {
		missing, _ := n.CheckDelivery(seq)
		undelivered += len(missing)
	}
	return n.Metrics.DataOverhead(), n.Metrics.ProtocolOverhead(), n.Metrics.MaxEndToEndDelay(), undelivered
}

// sendTimes returns the data-phase send schedule: one packet every
// 1/rate seconds starting at t=1, while inside the run. Each time is
// computed as 1 + i*interval from an integer counter — the accumulating
// `t += interval` loop it replaces drifted by a few ULPs per step at
// non-integer intervals (e.g. rate 3), dropping or duplicating the final
// packet depending on drift direction.
func sendTimes(simTime, rate float64) []float64 {
	interval := 1.0 / rate
	var ts []float64
	for i := 0; ; i++ {
		t := 1.0 + float64(i)*interval
		if t > simTime {
			return ts
		}
		ts = append(ts, t)
	}
}

// runFig89Shard executes every (size, protocol) run of one (topology,
// seed) shard. Shards are independent: each derives its own rng streams
// from the seed and shares only the immutable cached artifacts. The
// size guard and protocol loop emit observations in a fixed order, so
// the index-ordered fold reproduces the serial Add sequence.
func runFig89Shard(cfg Fig89Config, topo string, seed int) []obs {
	art := fig89ArtifactFor(topo, int64(seed))
	rnd := rng.New(int64(seed) * 7919)
	var out []obs
	for _, size := range cfg.GroupSizes {
		if size >= art.g.N() {
			continue
		}
		members := pickMembers(rnd, art.g.N(), size, -1)
		source := topology.NodeID(rnd.Intn(art.g.N()))
		for _, protoName := range Protocols {
			data, proto, maxE2E, undelivered := runOne(art.g, protoName, cfg, members, source, art.center)
			out = append(out, obs{Key{topo, size, protoName}, vals{data, proto, maxE2E, float64(undelivered)}})
		}
	}
	return out
}

// RunFig89 executes the full sweep, fanning the (topology, seed) shards
// over runner.Map. The same member sets, sources and centers are reused
// across protocols within a (topology, size, seed) triple so the
// comparison is paired, like the paper's; shard results merge in
// topology-major, seed-minor order, so the aggregate is byte-identical
// to a serial run.
func RunFig89(cfg Fig89Config) Table {
	if cfg.Topologies == nil {
		cfg.Topologies = Fig89Topologies()
	}
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(fig89Table, runner.Map(opts, len(cfg.Topologies)*cfg.Seeds, func(j int) []obs {
		return runFig89Shard(cfg, cfg.Topologies[j/cfg.Seeds], j%cfg.Seeds)
	}))
}

// WriteFig8 prints the data-overhead panels (Fig. 8 a–c) and the
// protocol-overhead panels (Fig. 8 d–f).
func WriteFig8(w io.Writer, t Table) { writePivot(w, t, t.spec.grid.metrics[:2]...) }

// WriteFig9 prints the maximum end-to-end delay panels (Fig. 9 a–c).
func WriteFig9(w io.Writer, t Table) { writePivot(w, t, t.spec.grid.metrics[2:]...) }
