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
	"scmp/internal/stats"
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

// churnObs is one shard's observation for one (rate, loss, protection)
// run.
type churnObs struct {
	rate      float64
	loss      float64
	protected bool
	// maxBacklog is the peak m-router pending-operation queue sampled
	// every 0.1s — the boundedness acceptance metric. stranded counts
	// surviving members the post-settle probe missed — the convergence
	// acceptance metric.
	maxBacklog int
	stranded   int
	survivors  int
	events     int
	sheds      int64
	parks      int64
	recovers   int64
	skips      int64
	rearr      float64 // restructures per membership event
	drift      float64 // mean tree cost / full-rebuild cost during churn
	ctrl       float64 // protocol overhead, link-cost units
}

// rebuildCost computes the periodic full-rebuild baseline: the cost of
// a fresh DCDM tree over the group's current members, on clean path
// tables shared across the run's samples.
func rebuildCost(art *fig89Artifact, spD, spC *topology.AllPairs, members []topology.NodeID) float64 {
	d := mtree.NewDCDM(art.g, art.center, 1.5, spD, spC)
	sorted := append([]topology.NodeID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, m := range sorted {
		d.Join(m)
	}
	return d.Tree().Cost()
}

// runChurnRun executes one churn run: the flap schedule under loss,
// backlog and drift sampling, a settle phase, a bounded quiesced drain,
// and a clean probe against the surviving membership.
func runChurnRun(art *fig89Artifact, cfg ChurnConfig,
	members []topology.NodeID, rate, loss float64, protected bool, seed int) churnObs {

	s := churnCore(art.center, protected)
	n := newNetwork(art.g, s)
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

	// Backlog sampler: the peak pending-operation queue, every 0.1s
	// through the churn window and one settle second of drain.
	maxBacklog := 0
	for i := 0; float64(i)*0.1 <= cfg.Duration+1; i++ {
		n.Sched.At(des.Time(float64(i)*0.1), func() {
			if b := s.ControlBacklog(); b > maxBacklog {
				maxBacklog = b
			}
		})
	}
	// Drift sampler: every 0.5s during churn, current tree cost vs a
	// full rebuild over the same members.
	spD := topology.NewLazyAllPairs(art.g, topology.ByDelay)
	spC := topology.NewLazyAllPairs(art.g, topology.ByCost)
	driftSum, driftN := 0.0, 0
	for i := 1; float64(i)*0.5 <= cfg.Duration; i++ {
		n.Sched.At(des.Time(float64(i)*0.5), func() {
			tr := s.GroupTree(churnGroup)
			if tr == nil || tr.MemberCount() == 0 {
				return
			}
			if base := rebuildCost(art, spD, spC, tr.Members()); base > 0 {
				driftSum += tr.Cost() / base
				driftN++
			}
		})
	}

	total := cfg.Duration + cfg.Settle
	n.RunUntil(des.Time(total))
	// Bounded drain: service operations executing after the horizon
	// re-arm refresh timers, so a single Quiesce+Run could spin
	// forever. Quiesce per one-second slice until the scheduler drains
	// (the post-churn backlog is finite, so this terminates).
	for n.Sched.Pending() > 0 {
		s.Quiesce()
		total++
		n.RunUntil(des.Time(total))
	}

	probe := n.SendData(art.center, churnGroup, packet.DefaultDataSize)
	n.Run()
	missing, _ := n.CheckDelivery(probe)

	obs := churnObs{
		rate:       rate,
		loss:       loss,
		protected:  protected,
		maxBacklog: maxBacklog,
		stranded:   len(missing),
		survivors:  len(n.Members(churnGroup)),
		events:     ch.Events(),
		sheds:      n.Metrics.Sheds(),
		parks:      n.Metrics.Parks(),
		recovers:   n.Metrics.ParkRecovers(),
		skips:      n.Metrics.RefreshSkips(),
		ctrl:       n.Metrics.ProtocolOverhead(),
	}
	if ch.Events() > 0 {
		obs.rearr = float64(n.Metrics.Restructures()) / float64(ch.Events())
	}
	if driftN > 0 {
		obs.drift = driftSum / float64(driftN)
	}
	return obs
}

// runChurnShard executes every run of one (topology, seed) shard in
// deterministic order: rate-major, loss-minor, protection on before
// off.
func runChurnShard(cfg ChurnConfig, topo string, seed int) []churnObs {
	art := fig89ArtifactFor(topo, int64(seed))
	members := churnMembers(art, cfg, seed)
	var out []churnObs
	for _, rate := range cfg.Rates {
		for _, loss := range cfg.LossRates {
			for _, protected := range []bool{true, false} {
				out = append(out, runChurnRun(art, cfg, members, rate, loss, protected, seed))
			}
		}
	}
	return out
}

// ChurnPoint is one (topology, rate, loss, protection) cell of the
// sweep, averaged over seeds.
type ChurnPoint struct {
	Topology  string
	Rate      float64
	Loss      float64
	Protected bool

	MaxBacklog *stats.Sample
	Stranded   *stats.Sample
	Sheds      *stats.Sample
	Parks      *stats.Sample
	Recovers   *stats.Sample
	Skips      *stats.Sample
	Rearrange  *stats.Sample // restructures per membership event
	Drift      *stats.Sample // tree cost vs full-rebuild baseline
	Ctrl       *stats.Sample // protocol overhead, link-cost units
}

// ChurnResult is the whole sweep.
type ChurnResult struct {
	Points []ChurnPoint
}

// RunChurn executes the churn sweep, fanning (topology, seed) shards
// over runner.Map; shard results merge in topology-major, seed-minor
// order, so the aggregate is byte-identical to a serial run at any
// worker count.
func RunChurn(cfg ChurnConfig) ChurnResult {
	if cfg.Topologies == nil {
		cfg.Topologies = Fig89Topologies()
	}
	type key struct {
		topo      string
		rate      float64
		loss      float64
		protected bool
	}
	cells := make(map[key]*ChurnPoint)
	cell := func(topo string, o churnObs) *ChurnPoint {
		k := key{topo, o.rate, o.loss, o.protected}
		p := cells[k]
		if p == nil {
			p = &ChurnPoint{Topology: topo, Rate: o.rate, Loss: o.loss, Protected: o.protected,
				MaxBacklog: &stats.Sample{}, Stranded: &stats.Sample{},
				Sheds: &stats.Sample{}, Parks: &stats.Sample{}, Recovers: &stats.Sample{},
				Skips: &stats.Sample{}, Rearrange: &stats.Sample{},
				Drift: &stats.Sample{}, Ctrl: &stats.Sample{}}
			cells[k] = p
		}
		return p
	}

	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	shards := runner.Map(opts, len(cfg.Topologies)*cfg.Seeds, func(j int) []churnObs {
		return runChurnShard(cfg, cfg.Topologies[j/cfg.Seeds], j%cfg.Seeds)
	})
	for j, sh := range shards {
		topo := cfg.Topologies[j/cfg.Seeds]
		for _, o := range sh {
			c := cell(topo, o)
			c.MaxBacklog.Add(float64(o.maxBacklog))
			c.Stranded.Add(float64(o.stranded))
			c.Sheds.Add(float64(o.sheds))
			c.Parks.Add(float64(o.parks))
			c.Recovers.Add(float64(o.recovers))
			c.Skips.Add(float64(o.skips))
			c.Rearrange.Add(o.rearr)
			c.Drift.Add(o.drift)
			c.Ctrl.Add(o.ctrl)
		}
	}

	res := ChurnResult{}
	for _, p := range cells {
		res.Points = append(res.Points, *p)
	}
	sort.Slice(res.Points, func(i, j int) bool {
		a, b := res.Points[i], res.Points[j]
		if a.Topology != b.Topology {
			return topoRank(a.Topology) < topoRank(b.Topology)
		}
		if a.Rate != b.Rate {
			return a.Rate < b.Rate
		}
		if a.Loss != b.Loss {
			return a.Loss < b.Loss
		}
		return a.Protected && !b.Protected
	})
	return res
}

// WriteChurn prints the sweep as per-topology tables.
func WriteChurn(w io.Writer, res ChurnResult) {
	for _, topo := range Fig89Topologies() {
		any := false
		for _, p := range res.Points {
			if p.Topology == topo {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "\nChurn sweep — %s\n", topo)
		fmt.Fprintf(w, "%-8s %-6s %-5s %9s %9s %8s %7s %7s %7s %9s %7s %10s\n",
			"rate", "loss", "prot", "maxqueue", "stranded",
			"sheds", "parks", "recov", "skips", "rearr/ev", "drift", "ctrl-ovh")
		for _, p := range res.Points {
			if p.Topology != topo {
				continue
			}
			fmt.Fprintf(w, "%-8.0f %-6.2f %-5s %9.1f %9.2f %8.1f %7.1f %7.1f %7.1f %9.4f %7.4f %10.1f\n",
				p.Rate, p.Loss, onOff(p.Protected),
				p.MaxBacklog.Mean(), p.Stranded.Mean(),
				p.Sheds.Mean(), p.Parks.Mean(), p.Recovers.Mean(), p.Skips.Mean(),
				p.Rearrange.Mean(), p.Drift.Mean(), p.Ctrl.Mean())
		}
	}
}

// WriteChurnCSV renders the sweep as one CSV table.
func WriteChurnCSV(w io.Writer, res ChurnResult) error {
	rows := make([][]string, 0, len(res.Points))
	for _, p := range res.Points {
		rows = append(rows, []string{
			p.Topology, f(p.Rate), f(p.Loss), onOff(p.Protected),
			f(p.MaxBacklog.Mean()), f(p.MaxBacklog.Max()),
			f(p.Stranded.Mean()), f(p.Stranded.CI95()),
			f(p.Sheds.Mean()), f(p.Parks.Mean()), f(p.Recovers.Mean()), f(p.Skips.Mean()),
			f(p.Rearrange.Mean()), f(p.Drift.Mean()), f(p.Ctrl.Mean()),
		})
	}
	return writeCSV(w, []string{
		"topology", "rate", "loss", "protected",
		"max_backlog_mean", "max_backlog_max",
		"stranded_mean", "stranded_ci95",
		"sheds_mean", "parks_mean", "recovers_mean", "skips_mean",
		"rearrange_per_event", "drift_mean", "ctrl_overhead_mean",
	}, rows)
}
