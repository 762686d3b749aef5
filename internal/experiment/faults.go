package experiment

import (
	"fmt"
	"io"
	"math"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/runner"
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

// faultsLossTable has one row per (topology, loss rate, repair mode).
// Measure 0 counts members missing from the post-settle probe (the
// acceptance metric: 0 means every member recovered); 1 counts
// member-deliveries lost during the loss window itself; 2 (control
// drops) and 3 (recoveries) come straight from the collector.
var faultsLossTable = &spec{
	order: [maxAxes][]string{Fig89Topologies()},
	csv: []col{
		{"topology", axis, 0}, {"loss", axis, 1}, {"repair", axis, 2},
		{"stranded_mean", mean, 0}, {"stranded_ci95", ci95, 0},
		{"undelivered_mean", mean, 1}, {"undelivered_ci95", ci95, 1},
		{"ctrl_drops_mean", mean, 2}, {"recoveries_mean", mean, 3},
	},
	flat: &flat{
		title: "Chaos loss sweep — %s", paneled: true,
		head: fmt.Sprintf("%-8s %-7s %10s %14s %12s %12s",
			"loss", "repair", "stranded", "undelivered", "ctrl-drops", "recoveries"),
		row:  "%-8.2f %-7s %10.2f %14.2f %12.1f %12.2f\n",
		show: []ref{{axis, 1}, {axis, 2}, {mean, 0}, {mean, 1}, {mean, 2}, {mean, 3}},
	},
}

// faultsRecoveryTable has one row per topology over its link-failure
// recovery runs. Measure 0 is each run's worst orphan re-adoption time
// (seconds, from metrics.MaxRecovery; unobserved when nothing needed
// repair); 1 is whether the post-repair probe reached every member, so
// its sum is the healed runs and its count all runs.
var faultsRecoveryTable = &spec{
	order: [maxAxes][]string{Fig89Topologies()},
	csv: []col{
		{"topology", axis, 0}, {"recovery_mean", mean, 0}, {"recovery_max", peak, 0},
		{"healed", sum, 1}, {"runs", count, 1},
	},
	flat: &flat{
		title: "Link-failure recovery (hardened stack, heaviest tree edge cut)",
		head:  fmt.Sprintf("%-16s %18s %18s %10s", "topology", "mean recovery (s)", "max recovery (s)", "healed"),
		row:   "%-16s %18.4f %18.4f %6d/%-3d\n",
		show:  []ref{{axis, 0}, {mean, 0}, {peak, 0}, {sum, 1}, {count, 1}},
	},
}

// FaultsResult bundles both studies.
type FaultsResult struct {
	Loss     Table
	Recovery Table
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
// then a settle phase and a clean probe. It returns faultsLossTable's
// measures.
func runFaultsLossRun(net *shardNet, art *fig89Artifact, cfg FaultsConfig,
	members []topology.NodeID, loss float64, repair bool, seed int) vals {

	s := faultsCore(art.center, repair)
	n := net.start(art.g, s)
	lossUntil := des.Time(cfg.SimTime / 2)
	n.InstallFaults(netsim.FaultPlan{
		ControlLoss: loss,
		DataLoss:    loss,
		LossUntil:   lossUntil,
		Seed:        int64(seed)*31 + 7,
	})
	sc := n.InstallScript(studyScript(members, faultsGroup, art.center, sendTimes(float64(lossUntil), cfg.DataRate)))
	n.RunUntil(des.Time(cfg.SimTime))
	s.Quiesce()
	n.Run()

	lost, _ := undelivered(n, sc)
	probe := n.SendData(art.center, faultsGroup, packet.DefaultDataSize)
	n.Run()
	missing, _ := n.CheckDelivery(probe)
	return vals{float64(len(missing)), float64(lost),
		float64(n.Metrics.DroppedControl()), float64(n.Metrics.Recoveries())}
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
// hardened stack and returns faultsRecoveryTable's measures.
func runFaultsRecoveryRun(net *shardNet, art *fig89Artifact, cfg FaultsConfig,
	members []topology.NodeID, seed int) vals {

	s := faultsCore(art.center, true)
	n := net.start(art.g, s)
	f := n.InstallFaults(netsim.FaultPlan{Seed: int64(seed)*31 + 7})
	n.InstallScript(studyScript(members, faultsGroup, art.center, nil))
	n.RunUntil(1) // every join settled, tree stable

	u, v, ok := heaviestTreeEdge(s.GroupTree(faultsGroup))
	if !ok {
		// Degenerate placement: every member sits on the m-router.
		s.Quiesce()
		n.Run()
		return vals{math.NaN(), 1}
	}
	f.ScheduleLinkDown(2, u, v)
	n.RunUntil(des.Time(cfg.SimTime))
	s.Quiesce()
	n.Run()

	probe := n.SendData(art.center, faultsGroup, packet.DefaultDataSize)
	n.Run()
	missing, _ := n.CheckDelivery(probe)
	out := vals{math.NaN(), 0}
	if n.Metrics.Recoveries() > 0 {
		out[0] = n.Metrics.MaxRecovery()
	}
	if len(missing) == 0 {
		out[1] = 1
	}
	return out
}

// runFaultsShard executes every run of one (topology, seed) shard on
// one network in deterministic order — the loss sweep (loss-major,
// repair on before off), then the link-cut run — and returns each
// table's observations.
func runFaultsShard(cfg FaultsConfig, topo string, seed int) (sh [2][]obs) {
	art := fig89ArtifactFor(topo, int64(seed))
	members := faultsMembers(art, cfg, seed)
	var net shardNet
	for _, loss := range cfg.LossRates {
		for _, repair := range []bool{true, false} {
			sh[0] = append(sh[0], obs{Key{topo, loss, OnOff(repair)},
				runFaultsLossRun(&net, art, cfg, members, loss, repair, seed)})
		}
	}
	sh[1] = []obs{{Key{topo}, runFaultsRecoveryRun(&net, art, cfg, members, seed)}}
	return sh
}

// RunFaults executes the chaos sweep, fanning (topology, seed) shards
// over runner.Map; shard results merge in topology-major, seed-minor
// order, so the aggregate is byte-identical to a serial run.
func RunFaults(cfg FaultsConfig) FaultsResult {
	if cfg.Topologies == nil {
		cfg.Topologies = Fig89Topologies()
	}
	opts := runner.Options{Parallel: cfg.Parallel, Progress: cfg.Progress}
	shards := runner.Map(opts, len(cfg.Topologies)*cfg.Seeds, func(j int) [2][]obs {
		return runFaultsShard(cfg, cfg.Topologies[j/cfg.Seeds], j%cfg.Seeds)
	})
	loss, recovery := make([][]obs, len(shards)), make([][]obs, len(shards))
	for j, sh := range shards {
		loss[j], recovery[j] = sh[0], sh[1]
	}
	return FaultsResult{fold(faultsLossTable, loss), fold(faultsRecoveryTable, recovery)}
}

// WriteFaults prints both studies as paper-style tables.
func WriteFaults(w io.Writer, res FaultsResult) {
	writeFlat(w, res.Loss)
	writeFlat(w, res.Recovery)
}
