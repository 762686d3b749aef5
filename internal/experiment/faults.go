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

// The faults experiment stresses SCMP's recovery machinery on the
// Fig. 8/9 topologies with the deterministic fault-injection layer:
//
//   - Chaos loss sweep: members join and a source streams data while a
//     uniform per-link-crossing loss rate applies to every packet, with
//     the reliability stack (ACK/retransmit + soft-state refresh +
//     local repair) on vs off. After the loss window closes and the
//     control plane settles, a clean probe counts stranded members —
//     the hardened stack must reach zero, the bare one generally not.
//   - Link-failure recovery curve: on a loss-free run, the tree link
//     carrying the most members is cut mid-run; the orphaned subtree's
//     REJOIN-driven repair time (see metrics.OnRecovery) is the curve.
//
// Both shard over (topology, seed) exactly like Fig. 8/9, so serial
// and parallel runs are byte-identical.

// FaultsConfig parameterises the chaos sweep.
type FaultsConfig struct {
	Topologies []string  // defaults to Fig89Topologies()
	LossRates  []float64 // per-crossing loss applied to control AND data
	GroupSize  int       // members per run (clamped below topology size)
	Seeds      int       // placements / loss streams per point
	SimTime    float64   // run horizon in seconds; loss ends at SimTime/2
	DataRate   float64   // in-window data packets per second
	// Parallel and Progress behave exactly as in Fig89Config.
	Parallel int
	Progress func(done, total int)
}

// DefaultFaults returns the standard chaos-sweep configuration.
func DefaultFaults() FaultsConfig {
	return FaultsConfig{
		Topologies: Fig89Topologies(),
		LossRates:  []float64{0, 0.01, 0.05, 0.10},
		GroupSize:  12,
		Seeds:      10,
		SimTime:    30,
		DataRate:   1,
	}
}

// Hardened-stack timers for the sweep (seconds; link delays are
// millisecond-scale, so the ACK timeout dwarfs any RTT while the
// refresh interval still fits many rounds into half a run).
const (
	faultsAckTimeout      = 0.05
	faultsRetryCap        = 8
	faultsRefreshInterval = 2.0
)

// FaultsLossPoint is one (topology, loss rate, repair mode) cell of the
// sweep, averaged over seeds.
type FaultsLossPoint struct {
	Topology string
	Loss     float64
	Repair   bool
	// Stranded counts members missing from the post-settle probe (the
	// acceptance metric: 0 means every member recovered). Undelivered
	// counts member-deliveries lost during the loss window itself;
	// CtrlDrops and Recoveries come straight from the collector.
	Stranded    *stats.Sample
	Undelivered *stats.Sample
	CtrlDrops   *stats.Sample
	Recoveries  *stats.Sample
}

// FaultsRecoveryPoint aggregates the link-failure recovery runs of one
// topology.
type FaultsRecoveryPoint struct {
	Topology string
	// Recovery samples the worst orphan re-adoption time of each run
	// (seconds, from metrics.MaxRecovery); Healed counts runs whose
	// post-repair probe reached every member, out of Runs.
	Recovery *stats.Sample
	Healed   int
	Runs     int
}

// FaultsResult bundles both studies.
type FaultsResult struct {
	Loss     []FaultsLossPoint
	Recovery []FaultsRecoveryPoint
}

// faultsLossObs is one shard's observation for one (loss, repair) run.
type faultsLossObs struct {
	loss        float64
	repair      bool
	stranded    int
	undelivered int
	ctrlDrops   int64
	recoveries  int64
}

// faultsRecoveryObs is one shard's link-cut run.
type faultsRecoveryObs struct {
	recovery float64
	repaired bool // a recovery time was recorded
	healed   bool
}

type faultsShard struct {
	loss     []faultsLossObs
	recovery faultsRecoveryObs
}

const faultsGroup = packet.GroupID(1)

// faultsMembers draws the shard's member set (never the m-router).
func faultsMembers(art *fig89Artifact, cfg FaultsConfig, seed int) []topology.NodeID {
	rnd := rng.New(int64(seed)*104729 + 1)
	size := cfg.GroupSize
	if size > art.g.N()-1 {
		size = art.g.N() - 1
	}
	return pickMembers(rnd, art.g.N(), size, art.center)
}

// faultsCore builds the protocol under test: the hardened reliability
// stack, or the bare fire-and-forget one with repair disabled.
func faultsCore(center topology.NodeID, hardened bool) *core.SCMP {
	cfg := core.Config{MRouter: center, Kappa: 1.5}
	if hardened {
		cfg.AckTimeout = faultsAckTimeout
		cfg.RetryCap = faultsRetryCap
		cfg.RefreshInterval = faultsRefreshInterval
	} else {
		cfg.DisableRepair = true
	}
	return core.New(cfg)
}

// runFaultsLossRun executes one chaos run: joins and data under loss,
// then a settle phase and a clean probe.
func runFaultsLossRun(art *fig89Artifact, cfg FaultsConfig,
	members []topology.NodeID, loss float64, repair bool, seed int) faultsLossObs {

	s := faultsCore(art.center, repair)
	n := newNetwork(art.g, s)
	lossUntil := des.Time(cfg.SimTime / 2)
	n.InstallFaults(netsim.FaultPlan{
		ControlLoss: loss,
		DataLoss:    loss,
		LossUntil:   lossUntil,
		Seed:        int64(seed)*31 + 7,
	})
	for i, m := range members {
		m := m
		n.Sched.At(des.Time(float64(i)*0.01), func() { n.HostJoin(m, faultsGroup) })
	}
	var seqs []uint64
	for _, t := range sendTimes(float64(lossUntil), cfg.DataRate) {
		n.Sched.At(des.Time(t), func() {
			seqs = append(seqs, n.SendData(art.center, faultsGroup, packet.DefaultDataSize))
		})
	}
	n.RunUntil(des.Time(cfg.SimTime))
	s.Quiesce()
	n.Run()

	undelivered := 0
	for _, seq := range seqs {
		missing, _ := n.CheckDelivery(seq)
		undelivered += len(missing)
	}
	probe := n.SendData(art.center, faultsGroup, packet.DefaultDataSize)
	n.Run()
	missing, _ := n.CheckDelivery(probe)
	return faultsLossObs{
		loss:        loss,
		repair:      repair,
		stranded:    len(missing),
		undelivered: undelivered,
		ctrlDrops:   n.Metrics.DroppedControl(),
		recoveries:  n.Metrics.Recoveries(),
	}
}

// heaviestTreeEdge returns the tree edge (parent, child) whose child
// subtree serves the most members — the most damaging single cut — with
// ties broken toward the lowest child id. ok is false on an edgeless
// tree.
func heaviestTreeEdge(tr *mtree.Tree) (parent, child topology.NodeID, ok bool) {
	carried := make(map[topology.NodeID]int)
	for _, m := range tr.Members() {
		for v := m; ; {
			p, up := tr.Parent(v)
			if !up {
				break
			}
			carried[v]++ // the (p, v) edge carries member m
			v = p
		}
	}
	best := topology.NodeID(-1)
	for _, v := range tr.Nodes() {
		c := carried[v]
		if c == 0 {
			continue
		}
		if best < 0 || c > carried[best] {
			best = v
		}
	}
	if best < 0 {
		return -1, -1, false
	}
	p, _ := tr.Parent(best)
	return p, best, true
}

// runFaultsRecoveryRun executes one loss-free link-cut run on the
// hardened stack and reports the repair time.
func runFaultsRecoveryRun(art *fig89Artifact, cfg FaultsConfig,
	members []topology.NodeID, seed int) faultsRecoveryObs {

	s := faultsCore(art.center, true)
	n := newNetwork(art.g, s)
	f := n.InstallFaults(netsim.FaultPlan{Seed: int64(seed)*31 + 7})
	for i, m := range members {
		m := m
		n.Sched.At(des.Time(float64(i)*0.01), func() { n.HostJoin(m, faultsGroup) })
	}
	n.RunUntil(1) // every join settled, tree stable

	u, v, ok := heaviestTreeEdge(s.GroupTree(faultsGroup))
	if !ok {
		// Degenerate placement: every member sits on the m-router.
		s.Quiesce()
		n.Run()
		return faultsRecoveryObs{healed: true}
	}
	f.ScheduleLinkDown(2, u, v)
	n.RunUntil(des.Time(cfg.SimTime))
	s.Quiesce()
	n.Run()

	probe := n.SendData(art.center, faultsGroup, packet.DefaultDataSize)
	n.Run()
	missing, _ := n.CheckDelivery(probe)
	return faultsRecoveryObs{
		recovery: n.Metrics.MaxRecovery(),
		repaired: n.Metrics.Recoveries() > 0,
		healed:   len(missing) == 0,
	}
}

// runFaultsShard executes every run of one (topology, seed) shard in
// deterministic order: the loss sweep (loss-major, repair on before
// off), then the link-cut run.
func runFaultsShard(cfg FaultsConfig, topo string, seed int) faultsShard {
	art := fig89ArtifactFor(topo, int64(seed))
	members := faultsMembers(art, cfg, seed)
	var sh faultsShard
	for _, loss := range cfg.LossRates {
		for _, repair := range []bool{true, false} {
			sh.loss = append(sh.loss, runFaultsLossRun(art, cfg, members, loss, repair, seed))
		}
	}
	sh.recovery = runFaultsRecoveryRun(art, cfg, members, seed)
	return sh
}

// RunFaults executes the chaos sweep, fanning (topology, seed) shards
// over runner.Map; shard results merge in topology-major, seed-minor
// order, so the aggregate is byte-identical to a serial run.
func RunFaults(cfg FaultsConfig) FaultsResult {
	if cfg.Topologies == nil {
		cfg.Topologies = Fig89Topologies()
	}
	type lossKey struct {
		topo   string
		loss   float64
		repair bool
	}
	lossCells := make(map[lossKey]*FaultsLossPoint)
	lossCell := func(topo string, loss float64, repair bool) *FaultsLossPoint {
		k := lossKey{topo, loss, repair}
		p := lossCells[k]
		if p == nil {
			p = &FaultsLossPoint{Topology: topo, Loss: loss, Repair: repair,
				Stranded: &stats.Sample{}, Undelivered: &stats.Sample{},
				CtrlDrops: &stats.Sample{}, Recoveries: &stats.Sample{}}
			lossCells[k] = p
		}
		return p
	}
	recCells := make(map[string]*FaultsRecoveryPoint)

	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	shards := runner.Map(opts, len(cfg.Topologies)*cfg.Seeds, func(j int) faultsShard {
		return runFaultsShard(cfg, cfg.Topologies[j/cfg.Seeds], j%cfg.Seeds)
	})
	for j, sh := range shards {
		topo := cfg.Topologies[j/cfg.Seeds]
		for _, o := range sh.loss {
			c := lossCell(topo, o.loss, o.repair)
			c.Stranded.Add(float64(o.stranded))
			c.Undelivered.Add(float64(o.undelivered))
			c.CtrlDrops.Add(float64(o.ctrlDrops))
			c.Recoveries.Add(float64(o.recoveries))
		}
		rc := recCells[topo]
		if rc == nil {
			rc = &FaultsRecoveryPoint{Topology: topo, Recovery: &stats.Sample{}}
			recCells[topo] = rc
		}
		rc.Runs++
		if sh.recovery.repaired {
			rc.Recovery.Add(sh.recovery.recovery)
		}
		if sh.recovery.healed {
			rc.Healed++
		}
	}

	res := FaultsResult{}
	for _, p := range lossCells {
		res.Loss = append(res.Loss, *p)
	}
	sort.Slice(res.Loss, func(i, j int) bool {
		a, b := res.Loss[i], res.Loss[j]
		if a.Topology != b.Topology {
			return topoRank(a.Topology) < topoRank(b.Topology)
		}
		if a.Loss != b.Loss {
			return a.Loss < b.Loss
		}
		return a.Repair && !b.Repair
	})
	for _, p := range recCells {
		res.Recovery = append(res.Recovery, *p)
	}
	sort.Slice(res.Recovery, func(i, j int) bool {
		return topoRank(res.Recovery[i].Topology) < topoRank(res.Recovery[j].Topology)
	})
	return res
}

func onOff(repair bool) string {
	if repair {
		return "on"
	}
	return "off"
}

// WriteFaults prints both studies as paper-style tables.
func WriteFaults(w io.Writer, res FaultsResult) {
	for _, topo := range Fig89Topologies() {
		any := false
		for _, p := range res.Loss {
			if p.Topology == topo {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "\nChaos loss sweep — %s\n", topo)
		fmt.Fprintf(w, "%-8s %-7s %10s %14s %12s %12s\n",
			"loss", "repair", "stranded", "undelivered", "ctrl-drops", "recoveries")
		for _, p := range res.Loss {
			if p.Topology != topo {
				continue
			}
			fmt.Fprintf(w, "%-8.2f %-7s %10.2f %14.2f %12.1f %12.2f\n",
				p.Loss, onOff(p.Repair), p.Stranded.Mean(), p.Undelivered.Mean(),
				p.CtrlDrops.Mean(), p.Recoveries.Mean())
		}
	}
	fmt.Fprintf(w, "\nLink-failure recovery (hardened stack, heaviest tree edge cut)\n")
	fmt.Fprintf(w, "%-16s %18s %18s %10s\n", "topology", "mean recovery (s)", "max recovery (s)", "healed")
	for _, p := range res.Recovery {
		fmt.Fprintf(w, "%-16s %18.4f %18.4f %6d/%-3d\n",
			p.Topology, p.Recovery.Mean(), p.Recovery.Max(), p.Healed, p.Runs)
	}
}

// WriteFaultsCSV renders both studies as two CSV tables separated by a
// blank line.
func WriteFaultsCSV(w io.Writer, res FaultsResult) error {
	rows := make([][]string, 0, len(res.Loss))
	for _, p := range res.Loss {
		rows = append(rows, []string{
			p.Topology, f(p.Loss), onOff(p.Repair),
			f(p.Stranded.Mean()), f(p.Stranded.CI95()),
			f(p.Undelivered.Mean()), f(p.Undelivered.CI95()),
			f(p.CtrlDrops.Mean()), f(p.Recoveries.Mean()),
		})
	}
	if err := writeCSV(w, []string{
		"topology", "loss", "repair",
		"stranded_mean", "stranded_ci95",
		"undelivered_mean", "undelivered_ci95",
		"ctrl_drops_mean", "recoveries_mean",
	}, rows); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	rows = rows[:0]
	for _, p := range res.Recovery {
		rows = append(rows, []string{
			p.Topology, f(p.Recovery.Mean()), f(p.Recovery.Max()),
			fmt.Sprint(p.Healed), fmt.Sprint(p.Runs),
		})
	}
	return writeCSV(w, []string{
		"topology", "recovery_mean", "recovery_max", "healed", "runs",
	}, rows)
}
