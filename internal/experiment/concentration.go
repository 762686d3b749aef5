package experiment

import (
	"fmt"
	"io"

	"scmp/internal/core"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// ConcentrationConfig parameterises the traffic-concentration study
// behind two of the paper's arguments: (a) §I — "the ST-based approach
// may cause traffic jam around the core, since packets from multiple
// sources may reach the core simultaneously"; (b) §II-A — multiple
// m-routers spread that load across regions. The workload: per group,
// a set of receiving members plus off-tree senders whose packets must
// funnel through the group's center.
type ConcentrationConfig struct {
	Nodes   int
	Degree  float64
	Groups  int
	Members int
	Senders int // off-tree senders per group (their packets funnel into the center)
	Rounds  int // each sender sends this many packets
	Seeds   int
	// Parallel bounds the worker goroutines fanning the per-seed shards
	// out: 0 means GOMAXPROCS, 1 the pure serial path.
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DefaultConcentration returns a 50-router configuration.
func DefaultConcentration() ConcentrationConfig {
	return ConcentrationConfig{Nodes: 50, Degree: 4, Groups: 4, Members: 8, Senders: 6, Rounds: 3, Seeds: 5}
}

// concentration schemes: CBT's single core, SCMP with one m-router, and
// SCMP spread over two and four m-routers.
var concentrationSchemes = []string{"CBT-1core", "SCMP-1m", "SCMP-2m", "SCMP-4m"}

// concentrationTable has one row per scheme. Measure 0 is the service
// load of the busiest center — the packets it terminates (encapsulated
// data) or fans out (tree-root data); 1 is the busiest single link's
// packet count.
var concentrationTable = &spec{
	order: [maxAxes][]string{concentrationSchemes},
	csv:   []col{{"scheme", axis, 0}, {"center_load_mean", mean, 0}, {"max_link_mean", mean, 1}},
	flat: &flat{
		title: "Traffic concentration (service load of the busiest center / busiest link)",
		head:  fmt.Sprintf("%-12s %16s %16s", "scheme", "center load", "max link load"),
		row:   "%-12s %16.0f %16.0f\n",
		show:  []ref{{axis, 0}, {mean, 0}, {mean, 1}},
	},
}

// RunConcentration executes the study.
func RunConcentration(cfg ConcentrationConfig) Table {
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(concentrationTable, runner.Map(opts, cfg.Seeds, func(seed int) []obs {
		// Centers: the best-placed node plus the next-best spread
		// (deterministic: ranked by average delay), shared via the
		// artifact cache.
		art := randomArtifactFor(cfg.Nodes, cfg.Degree, int64(seed))
		g, centers := art.g, art.centers
		wl := rng.New(int64(seed) * 31337)
		type plan struct{ members, senders []topology.NodeID }
		plans := make([]plan, cfg.Groups)
		for i := range plans {
			members := pickMembers(wl, g.N(), cfg.Members, -1)
			isMember := map[topology.NodeID]bool{}
			for _, m := range members {
				isMember[m] = true
			}
			// Off-tree senders: non-members, so their packets must be
			// encapsulated to the group's center (the paper's §I
			// concern: "packets from multiple sources may reach the
			// core simultaneously").
			var senders []topology.NodeID
			for _, v := range wl.Perm(g.N()) {
				if isMember[topology.NodeID(v)] {
					continue
				}
				senders = append(senders, topology.NodeID(v))
				if len(senders) == cfg.Senders {
					break
				}
			}
			plans[i] = plan{members: members, senders: senders}
		}
		var net shardNet
		var out []obs
		for _, scheme := range concentrationSchemes {
			var proto netsim.Protocol
			var watch []topology.NodeID
			switch scheme {
			case "CBT-1core":
				proto = buildProtocol("CBT", centers[0], 10)
				watch = centers[:1]
			case "SCMP-1m":
				proto = core.New(core.Config{MRouter: centers[0], Kappa: 1.5})
				watch = centers[:1]
			case "SCMP-2m":
				proto = core.New(core.Config{MRouters: centers[:2], Kappa: 1.5})
				watch = centers[:2]
			case "SCMP-4m":
				proto = core.New(core.Config{MRouters: centers[:4], Kappa: 1.5})
				watch = centers[:4]
			}
			n := net.start(g, proto)
			// Service load: the packets a center must switch as the
			// m-router/core — encapsulated data terminating at it plus
			// data it fans out — as opposed to incidental transit (the
			// centers are the best-connected nodes, so raw link load
			// mostly measures how central they are, not their role).
			service := map[topology.NodeID]int64{}
			watched := map[topology.NodeID]bool{}
			for _, c := range watch {
				watched[c] = true
			}
			n.Trace = func(from, to topology.NodeID, pkt *netsim.Packet) {
				if pkt.Kind == packet.EncapData && watched[to] && pkt.Dst == to {
					service[to]++
				}
				if pkt.Kind == packet.Data && watched[from] {
					service[from]++
				}
			}
			for gi, p := range plans {
				gid := packet.GroupID(gi + 1)
				for _, m := range p.members {
					n.HostJoin(m, gid)
				}
			}
			n.Run()
			for round := 0; round < cfg.Rounds; round++ {
				for gi, p := range plans {
					gid := packet.GroupID(gi + 1)
					for _, src := range p.senders {
						n.SendData(src, gid, packet.DefaultDataSize)
						n.Run()
					}
				}
			}
			busiest := int64(0)
			for _, c := range watch {
				if load := service[c]; load > busiest {
					busiest = load
				}
			}
			_, maxLink := n.Metrics.MaxLinkLoad()
			out = append(out, obs{Key{scheme}, vals{float64(busiest), float64(maxLink)}})
		}
		return out
	}))
}

// WriteConcentration prints the study.
func WriteConcentration(w io.Writer, t Table) { writeFlat(w, t) }
