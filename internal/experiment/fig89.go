package experiment

import (
	"fmt"
	"io"
	"scmp/internal/rng"
	"sort"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/runner"
	"scmp/internal/stats"
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

// Fig89Point is one (topology, group size, protocol) cell.
type Fig89Point struct {
	Topology  string
	GroupSize int
	Protocol  string
	// DataOverhead and ProtoOverhead are in link-cost units over the
	// whole run; MaxE2E is the maximum end-to-end delay of delivered
	// data packets; Undelivered counts member-deliveries that never
	// happened (0 when the protocols converge, which they must).
	DataOverhead  *stats.Sample
	ProtoOverhead *stats.Sample
	MaxE2E        *stats.Sample
	Undelivered   int
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
func Center(g *topology.Graph) topology.NodeID {
	best := topology.NodeID(0)
	bestAvg := -1.0
	for u := 0; u < g.N(); u++ {
		sp := topology.Shortest(g, topology.NodeID(u), topology.ByDelay)
		sum := 0.0
		for v := 0; v < g.N(); v++ {
			sum += sp.Delay[v]
		}
		avg := sum / float64(g.N())
		if bestAvg < 0 || avg < bestAvg {
			best, bestAvg = topology.NodeID(u), avg
		}
	}
	return best
}

// runOne simulates one protocol run and returns (data overhead,
// protocol overhead, max end-to-end delay, undelivered member count).
func runOne(g *topology.Graph, protoName string, cfg Fig89Config,
	members []topology.NodeID, source, center topology.NodeID) (float64, float64, float64, int) {

	proto := buildProtocol(protoName, center, cfg.PruneLifetime)
	n := newNetwork(g, proto)

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

// fig89Obs is one shard observation: a single protocol run's metrics.
// The shard's size guard and protocol loop emit them in deterministic
// order, so the index-ordered merge reproduces the serial Add sequence.
type fig89Obs struct {
	size                  int
	proto                 string
	data, protoOv, maxE2E float64
	undelivered           int
}

// runFig89Shard executes every (size, protocol) run of one (topology,
// seed) shard. Shards are independent: each derives its own rng streams
// from the seed and shares only the immutable cached artifacts.
func runFig89Shard(cfg Fig89Config, topo string, seed int) []fig89Obs {
	art := fig89ArtifactFor(topo, int64(seed))
	rnd := rng.New(int64(seed) * 7919)
	var out []fig89Obs
	for _, size := range cfg.GroupSizes {
		if size >= art.g.N() {
			continue
		}
		members := pickMembers(rnd, art.g.N(), size, -1)
		source := topology.NodeID(rnd.Intn(art.g.N()))
		for _, protoName := range Protocols {
			data, proto, maxE2E, undelivered := runOne(art.g, protoName, cfg, members, source, art.center)
			out = append(out, fig89Obs{size, protoName, data, proto, maxE2E, undelivered})
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
func RunFig89(cfg Fig89Config) []Fig89Point {
	if cfg.Topologies == nil {
		cfg.Topologies = Fig89Topologies()
	}
	type key struct {
		topo, proto string
		size        int
	}
	cells := make(map[key]*Fig89Point)
	cell := func(topo, proto string, size int) *Fig89Point {
		k := key{topo, proto, size}
		p := cells[k]
		if p == nil {
			p = &Fig89Point{Topology: topo, GroupSize: size, Protocol: proto,
				DataOverhead: &stats.Sample{}, ProtoOverhead: &stats.Sample{}, MaxE2E: &stats.Sample{}}
			cells[k] = p
		}
		return p
	}
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	shards := runner.Map(opts, len(cfg.Topologies)*cfg.Seeds, func(j int) []fig89Obs {
		return runFig89Shard(cfg, cfg.Topologies[j/cfg.Seeds], j%cfg.Seeds)
	})
	for j, shard := range shards {
		topo := cfg.Topologies[j/cfg.Seeds]
		for _, o := range shard {
			c := cell(topo, o.proto, o.size)
			c.DataOverhead.Add(o.data)
			c.ProtoOverhead.Add(o.protoOv)
			c.MaxE2E.Add(o.maxE2E)
			c.Undelivered += o.undelivered
		}
	}
	out := make([]Fig89Point, 0, len(cells))
	for _, p := range cells {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Topology != b.Topology {
			return topoRank(a.Topology) < topoRank(b.Topology)
		}
		if a.GroupSize != b.GroupSize {
			return a.GroupSize < b.GroupSize
		}
		return protoRank(a.Protocol) < protoRank(b.Protocol)
	})
	return out
}

func topoRank(t string) int {
	for i, name := range Fig89Topologies() {
		if name == t {
			return i
		}
	}
	return 99
}

func protoRank(p string) int {
	for i, name := range Protocols {
		if name == p {
			return i
		}
	}
	return 99
}

// metricPick selects which metric a writer prints and how to format it.
type metricPick struct {
	title  string
	format string
	pick   func(Fig89Point) *stats.Sample
}

func writeFig89Metric(w io.Writer, points []Fig89Point, m metricPick) {
	for _, topo := range Fig89Topologies() {
		any := false
		for _, p := range points {
			if p.Topology == topo {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "\n%s — %s\n", m.title, topo)
		fmt.Fprintf(w, "%-10s", "groupsize")
		for _, proto := range Protocols {
			fmt.Fprintf(w, " %14s", proto)
		}
		fmt.Fprintln(w)
		bySize := map[int]map[string]*stats.Sample{}
		for _, p := range points {
			if p.Topology != topo {
				continue
			}
			if bySize[p.GroupSize] == nil {
				bySize[p.GroupSize] = map[string]*stats.Sample{}
			}
			bySize[p.GroupSize][p.Protocol] = m.pick(p)
		}
		sizes := make([]int, 0, len(bySize))
		for s := range bySize {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		for _, s := range sizes {
			fmt.Fprintf(w, "%-10d", s)
			for _, proto := range Protocols {
				if sm := bySize[s][proto]; sm != nil {
					fmt.Fprintf(w, " "+m.format, sm.Mean())
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteFig8 prints the data-overhead panels (Fig. 8 a–c) and the
// protocol-overhead panels (Fig. 8 d–f).
func WriteFig8(w io.Writer, points []Fig89Point) {
	writeFig89Metric(w, points, metricPick{"Data overhead (link-cost units)", "%14.1f",
		func(p Fig89Point) *stats.Sample { return p.DataOverhead }})
	writeFig89Metric(w, points, metricPick{"Protocol overhead (link-cost units)", "%14.1f",
		func(p Fig89Point) *stats.Sample { return p.ProtoOverhead }})
}

// WriteFig9 prints the maximum end-to-end delay panels (Fig. 9 a–c).
func WriteFig9(w io.Writer, points []Fig89Point) {
	writeFig89Metric(w, points, metricPick{"Maximum end-to-end delay (s)", "%14.4f",
		func(p Fig89Point) *stats.Sample { return p.MaxE2E }})
}
