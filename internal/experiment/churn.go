package experiment

import (
	"fmt"
	"io"
	"sort"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// The churn experiment stresses SCMP's control plane the way the faults
// experiment stresses its data plane: a seeded churn driver
// (netsim.ChurnPlan) flaps a member population at sweep-controlled
// aggregate rates — up to thousands of membership events per simulated
// second — under control-plane loss, with the overload-protection stack
// (admission control + retry budgets + refresh suppression) on vs off.
//
// Per run the sweep records the peak m-router pending-operation queue
// (the boundedness acceptance metric), stranded survivors after a
// settle phase (the convergence acceptance metric), per-cause
// shed/park/recover counters, tree-quality drift against a periodic
// full-rebuild baseline, the rearrangement rate, and control overhead.
// Shards fan over (topology, seed) exactly like Fig. 8/9, so serial and
// parallel runs are byte-identical.

// ChurnConfig parameterises the churn sweep.
type ChurnConfig struct {
	Topologies []string  // defaults to Fig89Topologies()
	Rates      []float64 // aggregate membership events per simulated second
	LossRates  []float64 // control-plane loss during the churn window
	GroupSize  int       // churning member population (clamped below topology size)
	Seeds      int       // placements / churn streams per point
	Duration   float64   // churn window in seconds
	Settle     float64   // post-churn settle horizon before the probe
	Pareto     bool      // heavy-tailed (Pareto) gaps instead of Poisson
	// Parallel and Progress behave exactly as in Fig89Config.
	Parallel int
	Progress func(done, total int)
}

// DefaultChurn returns the standard churn-sweep configuration.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Topologies: Fig89Topologies(),
		Rates:      []float64{100, 500, 2000},
		LossRates:  []float64{0, 0.05},
		GroupSize:  16,
		Seeds:      8,
		Duration:   5,
		Settle:     10,
	}
}

// Control-plane timers for the sweep. Both arms run the same reliable
// stack (ACK/retransmit, soft-state refresh, m-router service model);
// the protected arm adds the three overload defences on top. The
// service capacity (1/churnServiceTime ops/s on one processor) sits
// below the top sweep rate plus its retransmission amplification, so
// the unprotected arm genuinely overloads.
const (
	churnAckTimeout      = 0.05
	churnRetryCap        = 8
	churnRetryBudget     = 4
	churnRefreshInterval = 2.0
	churnServiceTime     = 0.00075
	churnAdmitLimit      = 32
)

const churnGroup = packet.GroupID(1)

// churnCore builds the protocol under test: the shared reliability +
// service stack, with or without the overload defences.
func churnCore(center topology.NodeID, protected bool) *core.SCMP {
	cfg := core.Config{
		MRouter:         center,
		Kappa:           1.5,
		AckTimeout:      churnAckTimeout,
		RetryCap:        churnRetryCap,
		RefreshInterval: churnRefreshInterval,
		ServiceTime:     churnServiceTime,
		Processors:      1,
	}
	if protected {
		cfg.AdmitLimit = churnAdmitLimit
		cfg.RetryBudget = churnRetryBudget
		cfg.RefreshSuppress = true
	}
	return core.New(cfg)
}

// churnMembers draws the shard's flapping population (never the
// m-router), from its own stream so cache state cannot shift it.
func churnMembers(art *fig89Artifact, cfg ChurnConfig, seed int) []topology.NodeID {
	rnd := rng.New(int64(seed)*104729 + 11)
	size := cfg.GroupSize
	if size > art.g.N()-1 {
		size = art.g.N() - 1
	}
	return pickMembers(rnd, art.g.N(), size, art.center)
}

// The measures of one (rate, loss, protection) run, as churnTable's
// columns index them.
const (
	// churnBacklog is the peak m-router pending-operation queue sampled
	// every 0.1s — the boundedness acceptance metric.
	churnBacklog = iota
	// churnStranded counts surviving members the post-settle probe
	// missed — the convergence acceptance metric.
	churnStranded
	churnSheds
	churnParks
	churnRecovers
	churnSkips
	churnRearrange // restructures per membership event
	churnDrift     // mean tree cost / full-rebuild cost during churn
	churnCtrl      // protocol overhead, link-cost units
)

// churnTable has one row per (topology, rate, loss, protection).
var churnTable = &spec{
	order: [maxAxes][]string{Fig89Topologies()},
	csv: []col{
		{"topology", axis, 0}, {"rate", axis, 1}, {"loss", axis, 2}, {"protected", axis, 3},
		{"max_backlog_mean", mean, churnBacklog}, {"max_backlog_max", peak, churnBacklog},
		{"stranded_mean", mean, churnStranded}, {"stranded_ci95", ci95, churnStranded},
		{"sheds_mean", mean, churnSheds}, {"parks_mean", mean, churnParks},
		{"recovers_mean", mean, churnRecovers}, {"skips_mean", mean, churnSkips},
		{"rearrange_per_event", mean, churnRearrange}, {"drift_mean", mean, churnDrift},
		{"ctrl_overhead_mean", mean, churnCtrl},
	},
	flat: &flat{
		title: "Churn sweep — %s", paneled: true,
		head: fmt.Sprintf("%-8s %-6s %-5s %9s %9s %8s %7s %7s %7s %9s %7s %10s",
			"rate", "loss", "prot", "maxqueue", "stranded",
			"sheds", "parks", "recov", "skips", "rearr/ev", "drift", "ctrl-ovh"),
		row: "%-8.0f %-6.2f %-5s %9.1f %9.2f %8.1f %7.1f %7.1f %7.1f %9.4f %7.4f %10.1f\n",
		show: []ref{{axis, 1}, {axis, 2}, {axis, 3},
			{mean, churnBacklog}, {mean, churnStranded}, {mean, churnSheds}, {mean, churnParks},
			{mean, churnRecovers}, {mean, churnSkips}, {mean, churnRearrange}, {mean, churnDrift}, {mean, churnCtrl}},
	},
}

// rebuildCost computes the periodic full-rebuild baseline: the cost of
// a fresh DCDM tree over the group's current members, on the network's
// routing store — the tables the m-router's own engine reads.
func rebuildCost(art *fig89Artifact, n *netsim.Network, members []topology.NodeID) float64 {
	d := mtree.NewDCDM(art.g, art.center, 1.5, n.Delay, n.Cost)
	sorted := append([]topology.NodeID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, m := range sorted {
		d.Join(m)
	}
	return d.Tree().Cost()
}

// runChurnRun executes one churn run: the flap schedule under loss,
// backlog and drift sampling, a settle phase, a bounded quiesced drain,
// and a clean probe against the surviving membership. It returns
// churnTable's measures.
func runChurnRun(art *fig89Artifact, cfg ChurnConfig,
	members []topology.NodeID, rate, loss float64, protected bool, seed int) vals {

	s := churnCore(art.center, protected)
	n := netsim.New(art.g, s)
	dist := netsim.ChurnPoisson
	if cfg.Pareto {
		dist = netsim.ChurnPareto
	}
	ch := n.InstallChurn(netsim.ChurnPlan{
		Group:    churnGroup,
		Members:  members,
		Rate:     rate,
		Dist:     dist,
		Duration: cfg.Duration,
		Seed:     int64(seed)*7919 + 13,
	})
	n.InstallFaults(netsim.FaultPlan{
		ControlLoss: loss,
		LossUntil:   des.Time(cfg.Duration),
		Seed:        int64(seed)*31 + 7,
	})

	// Samplers, read between RunUntil slices: the peak pending-operation
	// queue every 0.1 s through the churn window and one settle second
	// of drain, and every 0.5 s during churn the tree's cost against a
	// full rebuild over the same members. A backlog sample goes first
	// when the two fall at one instant.
	maxBacklog, driftSum, driftN := 0, 0.0, 0
	for b, d := 0, 1; ; {
		tb, td := float64(b)*0.1, float64(d)*0.5
		backlog, drift := tb <= cfg.Duration+1, td <= cfg.Duration
		if backlog && (tb <= td || !drift) {
			n.RunUntil(des.Time(tb))
			maxBacklog = max(maxBacklog, s.ControlBacklog())
			b++
		} else if drift {
			n.RunUntil(des.Time(td))
			if tr := s.GroupTree(churnGroup); tr != nil && tr.MemberCount() > 0 {
				if base := rebuildCost(art, n, tr.Members()); base > 0 {
					driftSum += tr.Cost() / base
					driftN++
				}
			}
			d++
		} else {
			break
		}
	}

	n.RunUntil(des.Time(cfg.Duration + cfg.Settle))
	s.Quiesce()
	n.Run()

	probe := n.SendData(art.center, churnGroup, packet.DefaultDataSize)
	n.Run()
	missing, _ := n.CheckDelivery(probe)

	v := vals{
		churnBacklog:  float64(maxBacklog),
		churnStranded: float64(len(missing)),
		churnSheds:    float64(n.Metrics.Sheds()),
		churnParks:    float64(n.Metrics.Parks()),
		churnRecovers: float64(n.Metrics.ParkRecovers()),
		churnSkips:    float64(n.Metrics.RefreshSkips()),
		churnCtrl:     n.Metrics.ProtocolOverhead(),
	}
	if ch.Events() > 0 {
		v[churnRearrange] = float64(n.Metrics.Restructures()) / float64(ch.Events())
	}
	if driftN > 0 {
		v[churnDrift] = driftSum / float64(driftN)
	}
	return v
}

// runChurnShard executes every run of one (topology, seed) shard in
// deterministic order: rate-major, loss-minor, protection on before
// off.
func runChurnShard(cfg ChurnConfig, topo string, seed int) []obs {
	art := fig89ArtifactFor(topo, int64(seed))
	members := churnMembers(art, cfg, seed)
	var out []obs
	for _, rate := range cfg.Rates {
		for _, loss := range cfg.LossRates {
			for _, protected := range []bool{true, false} {
				out = append(out, obs{Key{topo, rate, loss, OnOff(protected)},
					runChurnRun(art, cfg, members, rate, loss, protected, seed)})
			}
		}
	}
	return out
}

// RunChurn executes the churn sweep, fanning (topology, seed) shards
// over runner.Map; shard results merge in topology-major, seed-minor
// order, so the aggregate is byte-identical to a serial run at any
// worker count.
func RunChurn(cfg ChurnConfig) Table {
	if cfg.Topologies == nil {
		cfg.Topologies = Fig89Topologies()
	}
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	return fold(churnTable, runner.Map(opts, len(cfg.Topologies)*cfg.Seeds, func(j int) []obs {
		return runChurnShard(cfg, cfg.Topologies[j/cfg.Seeds], j%cfg.Seeds)
	}))
}

// WriteChurn prints the sweep as per-topology tables.
func WriteChurn(w io.Writer, t Table) { writeFlat(w, t) }
