package experiment

import (
	"io"

	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// StateConfig parameterises the routing-state scalability study that
// quantifies the paper's §I argument: SPT-based protocols (DVMRP,
// MOSPF) keep per-(source, group) state, while the shared/centralised
// protocols (SCMP, CBT) keep per-group state only. The workload runs
// G groups, each with a fixed member count and several distinct
// senders, then counts each router's live state entries.
type StateConfig struct {
	Nodes      int
	Degree     float64
	Groups     []int // group counts to sweep
	Members    int   // members per group
	Senders    int   // distinct senders per group
	PacketsPer int   // packets each sender sends (instantiates state)
	Seeds      int
	// Parallel bounds the worker goroutines fanning the per-seed shards
	// out: 0 means GOMAXPROCS, 1 the pure serial path.
	Parallel int
	// Progress, when set, observes shard completions (called
	// concurrently when Parallel > 1).
	Progress func(done, total int)
}

// DefaultState returns a 50-router configuration.
func DefaultState() StateConfig {
	return StateConfig{
		Nodes: 50, Degree: 4,
		Groups:  []int{1, 2, 4, 8, 16},
		Members: 8, Senders: 4, PacketsPer: 2,
		Seeds: 5,
	}
}

// stateTable has one row per (groups, protocol): state entries per
// router, as the max over routers (measure 0) and the domain total (1),
// sampled per seed.
var stateTable = &spec{
	order: [maxAxes][]string{1: Protocols},
	csv: []col{
		{"groups", axis, 0}, {"protocol", axis, 1},
		{"max_state_mean", mean, 0}, {"sum_state_mean", mean, 1},
	},
	grid: &grid{at: 0, head: "groups", rowW: 8, colW: 18, metrics: []metric{
		{"Routing state per router (max over routers / domain total)", " %9.1f/%8.0f", []ref{{mean, 0}, {mean, 1}}},
	}},
}

// stateCounter is implemented by all four protocols.
type stateCounter interface {
	StateEntries(node topology.NodeID) int
}

// RunState executes the sweep.
func RunState(cfg StateConfig) Table {
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(stateTable, runner.Map(opts, cfg.Seeds, func(seed int) []obs {
		art := randomArtifactFor(cfg.Nodes, cfg.Degree, int64(seed))
		g, center := art.g, art.centers[0]
		var net shardNet
		var out []obs
		for _, groups := range cfg.Groups {
			// One shared workload per (seed, groups): per group, a
			// member set and a sender set.
			wl := rng.New(int64(seed)*1e6 + int64(groups))
			type groupPlan struct {
				members []topology.NodeID
				senders []topology.NodeID
			}
			plans := make([]groupPlan, groups)
			for i := range plans {
				plans[i] = groupPlan{
					members: pickMembers(wl, g.N(), cfg.Members, -1),
					senders: pickMembers(wl, g.N(), cfg.Senders, -1),
				}
			}
			for _, protoName := range Protocols {
				proto := buildProtocol(protoName, center, 1000 /* prunes persist: measure steady state */)
				n := net.start(g, proto)
				for gi, plan := range plans {
					gid := packet.GroupID(gi + 1)
					for _, m := range plan.members {
						n.HostJoin(m, gid)
					}
					n.Run()
					for p := 0; p < cfg.PacketsPer; p++ {
						for _, s := range plan.senders {
							n.SendData(s, gid, packet.DefaultDataSize)
							n.Run()
						}
					}
				}
				counter := proto.(stateCounter)
				maxState, sum := 0, 0
				for v := 0; v < g.N(); v++ {
					st := counter.StateEntries(topology.NodeID(v))
					sum += st
					if st > maxState {
						maxState = st
					}
				}
				out = append(out, obs{Key{groups, protoName}, vals{float64(maxState), float64(sum)}})
			}
		}
		return out
	}))
}

// WriteState prints the study: per group count, the worst-router and
// domain-total state entries per protocol.
func WriteState(w io.Writer, t Table) { writePivot(w, t, t.spec.grid.metrics...) }
