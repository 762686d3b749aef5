package experiment

import (
	"fmt"
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

// protocolBuilders instantiates each of Protocols by name, with the
// shared center node as m-router / CBT core.
var protocolBuilders = map[string]func(center topology.NodeID, pruneLifetime des.Time) netsim.Protocol{
	"SCMP": func(center topology.NodeID, _ des.Time) netsim.Protocol {
		// The moderate constraint (bound 1.5x the farthest member's
		// unicast delay) lets DCDM trade a little delay for tree cost,
		// the regime the paper's Fig. 8 runs in: its data overhead is
		// "strongly correlated to the multicast tree cost".
		return core.New(core.Config{MRouter: center, Kappa: 1.5})
	},
	"DVMRP": func(_ topology.NodeID, pruneLifetime des.Time) netsim.Protocol { return dvmrp.New(pruneLifetime) },
	"MOSPF": func(topology.NodeID, des.Time) netsim.Protocol { return mospf.New() },
	"CBT":   func(center topology.NodeID, _ des.Time) netsim.Protocol { return cbt.New(center) },
}

// buildProtocol instantiates a protocol by name with the shared
// center node used as m-router / CBT core.
func buildProtocol(name string, center topology.NodeID, pruneLifetime des.Time) netsim.Protocol {
	build, ok := protocolBuilders[name]
	if !ok {
		panic("experiment: unknown protocol " + name)
	}
	return build(center, pruneLifetime)
}

// Center picks the shared m-router / core location: the node with the
// smallest average shortest-path delay to all others (placement rule 1
// of §IV-A). SCMP and CBT get the same center, as in the paper's setup.
func Center(g *topology.Graph) topology.NodeID { return rankedCenters(g, 1)[0] }

// runOne simulates one protocol run on the shard's network and returns
// (data overhead, protocol overhead, max end-to-end delay, undelivered
// member count). The run is fault-free, so every data packet must reach
// each member once and no one else: a duplicate or unexpected delivery
// is a protocol fault, and it fails the shard.
func runOne(net *shardNet, g *topology.Graph, protoName string, cfg Fig89Config, topo string,
	members []topology.NodeID, source, center topology.NodeID) (float64, float64, float64, int) {

	n := net.start(g, buildProtocol(protoName, center, cfg.PruneLifetime))

	// Members join over the first half second, then the group is stable
	// for the data phase, matching the paper's static member sets.
	sc := n.InstallScript(studyScript(members, 1, source, sendTimes(cfg.SimTime, cfg.DataRate)))
	n.RunUntil(des.Time(cfg.SimTime))
	n.Run() // drain in-flight packets
	missed, bad := undelivered(n, sc)
	if bad != 0 {
		_, anomalous := n.CheckDelivery(bad)
		panic(fmt.Sprintf("experiment: %s size %d %s: data packet %d delivered more than once or to non-members %v",
			topo, len(members), protoName, bad, anomalous))
	}
	return n.Metrics.DataOverhead(), n.Metrics.ProtocolOverhead(), n.Metrics.MaxEndToEndDelay(), missed
}

// studyScript returns the timed inputs of a study run: members join g
// 0.01 s apart from t=0, and src sends one default-size data packet to
// g at each of times.
func studyScript(members []topology.NodeID, g packet.GroupID, src topology.NodeID, times []float64) []netsim.Step {
	steps := make([]netsim.Step, 0, len(members)+len(times))
	for i, m := range members {
		steps = append(steps, netsim.Step{At: des.Time(float64(i) * 0.01), Node: int32(m), Group: g, Kind: netsim.Join})
	}
	for _, t := range times {
		steps = append(steps, netsim.Step{At: des.Time(t), Node: int32(src), Arg: packet.DefaultDataSize, Group: g, Kind: netsim.Send})
	}
	return steps
}

// undelivered counts the member deliveries sc's data packets missed. bad
// is the seq of the first of those packets delivered anomalously — more
// than once, or to a router that was no member when it was sent — and 0
// when none was.
func undelivered(n *netsim.Network, sc *netsim.Script) (missed int, bad uint64) {
	for _, seq := range sc.Sent() {
		missing, anomalous := n.CheckDelivery(seq)
		missed += len(missing)
		if len(anomalous) > 0 && bad == 0 {
			bad = seq
		}
	}
	return missed, bad
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
		t := 1.0 + float64(float64(i)*interval)
		if t > simTime {
			return ts
		}
		ts = append(ts, t)
	}
}

// runFig89Shard executes every (size, protocol) run of one (topology,
// seed) shard on one network. Shards are independent: each derives its
// own rng streams from the seed and shares only the immutable cached
// artifacts. The size guard and protocol loop emit observations in a
// fixed order, so the index-ordered fold reproduces the serial Add
// sequence.
func runFig89Shard(cfg Fig89Config, topo string, seed int) []obs {
	art := fig89ArtifactFor(topo, int64(seed))
	rnd := rng.New(int64(seed) * 7919)
	var net shardNet
	var out []obs
	for _, size := range cfg.GroupSizes {
		if size >= art.g.N() {
			continue
		}
		members := pickMembers(rnd, art.g.N(), size, -1)
		source := topology.NodeID(rnd.Intn(art.g.N()))
		for _, protoName := range Protocols {
			data, proto, maxE2E, undelivered := runOne(&net, art.g, protoName, cfg, topo, members, source, art.center)
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
