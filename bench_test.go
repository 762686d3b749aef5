// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations for the design choices called out in DESIGN.md. Each
// benchmark reports the headline metric(s) of its figure via
// b.ReportMetric so a -bench run doubles as a results table:
//
//	go test -bench=. -benchmem
package scmp_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/experiment"
	"scmp/internal/fabric"
	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// benchFig7Cfg is a reduced-width Fig. 7 sweep sized for benchmarking;
// the full paper configuration runs via cmd/scmpsim.
func benchFig7Cfg() experiment.Fig7Config {
	return experiment.Fig7Config{
		Nodes: 100, Alpha: 0.25, Beta: 0.2,
		GroupSizes: []int{10, 50, 90},
		Seeds:      3,
	}
}

// BenchmarkFig7TreeQuality regenerates Fig. 7 (a–f): tree delay and tree
// cost for DCDM/KMB/SPT across group sizes and constraint levels.
func BenchmarkFig7TreeQuality(b *testing.B) {
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		tab = experiment.RunFig7(benchFig7Cfg())
	}
	for _, algo := range []string{"DCDM", "KMB", "SPT"} {
		b.ReportMetric(tab.Value("tree_cost_mean", "moderate", 50, algo), algo+"_cost_g50")
		b.ReportMetric(tab.Value("tree_delay_mean", "moderate", 50, algo), algo+"_delay_g50")
	}
}

func benchFig89Cfg() experiment.Fig89Config {
	return experiment.Fig89Config{
		GroupSizes:    []int{8, 24, 40},
		Seeds:         2,
		SimTime:       15,
		DataRate:      1,
		PruneLifetime: 10,
		Topologies:    []string{experiment.TopoArpanet, experiment.TopoRand3},
	}
}

// BenchmarkFig8Overhead regenerates Fig. 8 (a–f): data overhead and
// protocol overhead per protocol.
func BenchmarkFig8Overhead(b *testing.B) {
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		tab = experiment.RunFig89(benchFig89Cfg())
	}
	for _, proto := range experiment.Protocols {
		b.ReportMetric(tab.Value("data_overhead_mean", experiment.TopoRand3, 24, proto), proto+"_data_g24")
		b.ReportMetric(tab.Value("proto_overhead_mean", experiment.TopoRand3, 24, proto), proto+"_proto_g24")
	}
}

// BenchmarkFig89Parallelism compares the serial path against worker-pool
// widths on the same Fig. 8/9 sweep. Output is byte-identical across
// widths (see internal/core's cross-mode tests); this measures only
// wall-clock. On a single-core box the widths tie — the speedup shows up
// where GOMAXPROCS > 1.
func BenchmarkFig89Parallelism(b *testing.B) {
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel%d", width), func(b *testing.B) {
			cfg := benchFig89Cfg()
			cfg.Parallel = width
			for i := 0; i < b.N; i++ {
				experiment.RunFig89(cfg)
			}
		})
	}
}

// BenchmarkFig9Delay regenerates Fig. 9 (a–c): maximum end-to-end delay.
func BenchmarkFig9Delay(b *testing.B) {
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		tab = experiment.RunFig89(benchFig89Cfg())
	}
	for _, proto := range experiment.Protocols {
		b.ReportMetric(tab.Value("max_e2e_mean", experiment.TopoRand3, 24, proto)*1000, proto+"_maxdelay_ms_g24")
	}
}

// BenchmarkFig7xFamilies regenerates the topology-sensitivity study:
// DCDM/KMB cost and delay relative to SPT per topology family.
func BenchmarkFig7xFamilies(b *testing.B) {
	cfg := experiment.Fig7xConfig{GroupSize: 15, Seeds: 2, Kappa: 1.5}
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		tab = experiment.RunFig7x(cfg)
	}
	for _, family := range experiment.Fig7xFamilies {
		b.ReportMetric(tab.Value("cost_vs_spt", family, "DCDM"), family+"_dcdm_costratio")
	}
}

// BenchmarkPlacement regenerates the §IV-A placement study.
func BenchmarkPlacement(b *testing.B) {
	cfg := experiment.PlacementConfig{Nodes: 60, GroupSize: 15, Seeds: 3, Trials: 5, Kappa: 1.5}
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		tab = experiment.RunPlacement(cfg)
	}
	for _, rule := range experiment.PlacementRules {
		b.ReportMetric(tab.Value("tree_cost_mean", rule), rule+"_cost")
	}
}

// BenchmarkFabric measures the m-router fabric: configuring a fully
// loaded 64-port sandwich network for simultaneous many-to-many groups
// and routing every input (§II-B).
func BenchmarkFabric(b *testing.B) {
	fab, err := fabric.New(64)
	if err != nil {
		b.Fatal(err)
	}
	groups := map[packet.GroupID]fabric.GroupConn{}
	for g := 0; g < 8; g++ {
		ins := make([]int, 8)
		for i := range ins {
			ins[i] = g*8 + i
		}
		groups[packet.GroupID(g+1)] = fabric.GroupConn{Inputs: ins, Output: g}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := fab.Configure(groups)
		if err != nil {
			b.Fatal(err)
		}
		for in := 0; in < 64; in++ {
			cfg.Route(in)
		}
	}
}

// BenchmarkDCDMConstraint is the ablation for design decision 1 in
// DESIGN.md: how the constraint multiplier kappa trades tree delay for
// tree cost. It reports the cost and delay of the same member set under
// kappa in {1, 1.25, 1.5, 2, inf}.
func BenchmarkDCDMConstraint(b *testing.B) {
	rng := rng.New(42)
	wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
	if err != nil {
		b.Fatal(err)
	}
	g := wg.Graph
	spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
	spCost := topology.NewLazyAllPairs(g, topology.ByCost)
	var members []topology.NodeID
	for _, v := range rng.Perm(g.N())[:40] {
		if v != 0 {
			members = append(members, topology.NodeID(v))
		}
	}
	kappas := []struct {
		name string
		k    float64
	}{
		{"k1.00", 1}, {"k1.25", 1.25}, {"k1.50", 1.5}, {"k2.00", 2}, {"kinf", math.Inf(1)},
	}
	type result struct{ cost, delay float64 }
	results := map[string]result{}
	for i := 0; i < b.N; i++ {
		for _, kp := range kappas {
			d := mtree.NewDCDM(g, 0, kp.k, spDelay, spCost)
			for _, m := range members {
				d.Join(m)
			}
			results[kp.name] = result{d.Tree().Cost(), d.Tree().TreeDelay()}
		}
	}
	for _, kp := range kappas {
		b.ReportMetric(results[kp.name].cost, kp.name+"_cost")
		b.ReportMetric(results[kp.name].delay, kp.name+"_delay")
	}
}

// BenchmarkStateScalability regenerates the routing-state study (the
// paper's §I scalability argument): per-router state entries at 8
// groups x 4 senders, per protocol.
func BenchmarkStateScalability(b *testing.B) {
	cfg := experiment.StateConfig{
		Nodes: 40, Degree: 4, Groups: []int{8},
		Members: 6, Senders: 4, PacketsPer: 2, Seeds: 2,
	}
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		tab = experiment.RunState(cfg)
	}
	for _, proto := range experiment.Protocols {
		b.ReportMetric(tab.Value("max_state_mean", 8, proto), proto+"_maxstate_g8")
	}
}

// BenchmarkMRouterLoad is the §II-B centralisation ablation: a burst of
// joins hits the m-router with varying parallel service capacity; the
// reported metric is the worst queueing wait (seconds) a JOIN suffered
// before the m-router's tree computation started.
func BenchmarkMRouterLoad(b *testing.B) {
	g, err := topology.Random(topology.DefaultRandom(60, 4), rng.New(21))
	if err != nil {
		b.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	run := func(processors int) float64 {
		s := core.New(core.Config{MRouter: 0, ServiceTime: 0.02, Processors: processors})
		n := netsim.New(g, s)
		for v := 1; v <= 40; v++ {
			n.HostJoin(topology.NodeID(v), 1)
		}
		n.Run()
		return s.ServiceStats().MaxWait
	}
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, p := range []int{1, 2, 4, 8} {
			results[p] = run(p)
		}
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.ReportMetric(results[p], fmt.Sprintf("maxwait_s_p%d", p))
	}
}

// BenchmarkChurn measures the control plane under the high-churn
// membership engine: a 16-member population flaps at 2000 events/s for
// 3 simulated seconds under 5% control loss against a slow m-router,
// with the overload defences (admission control, retry budgets, refresh
// suppression) on. Reported metrics are simulator throughput and the
// peak pending-operation queue the admission limit is bounding.
func BenchmarkChurn(b *testing.B) {
	g, err := topology.Random(topology.DefaultRandom(50, 3), rng.New(17))
	if err != nil {
		b.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	members := make([]topology.NodeID, 16)
	for i := range members {
		members[i] = topology.NodeID(i + 1)
	}
	var events uint64
	maxBacklog := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.New(core.Config{
			MRouter: 0, Kappa: 1.5,
			AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2,
			ServiceTime: 0.00075, Processors: 1,
			AdmitLimit: 32, RetryBudget: 4, RefreshSuppress: true,
		})
		n := netsim.New(g, s)
		n.InstallChurn(netsim.ChurnPlan{
			Group: 1, Members: members, Rate: 2000, Duration: 3, Seed: 13,
		})
		n.InstallFaults(netsim.FaultPlan{ControlLoss: 0.05, LossUntil: 3, Seed: 7})
		for t := 0; t < 40; t++ {
			n.RunUntil(des.Time(float64(t)) / 10)
			if q := s.ControlBacklog(); q > maxBacklog {
				maxBacklog = q
			}
		}
		n.RunUntil(9)
		s.Quiesce()
		n.Run()
		events += n.EventsFired()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(maxBacklog), "max_backlog")
}

// BenchmarkFaultRecompute measures the routing work one fault event
// costs: the fault layer's apply on a 400-node SCMP network (arc-mask
// update, invalidation of the network's routing store, the m-router's
// rebase), then the rows a local repair typically consults before the
// next event — k = 8 routers, each a unicast destination and a source in
// the delay and cost tables (the delay row serves as both). Events
// alternate cut and restore of one link, so half the rows are masked
// and half are not. Nothing here is sharded any more; the serial and
// default-GOMAXPROCS arms show that the cost does not depend on the
// worker pool.
func BenchmarkFaultRecompute(b *testing.B) {
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := wg.Graph
	au, av := topology.NodeID(0), g.Neighbors(0)[0].To
	consulted := []topology.NodeID{0, 7, 42, 99, 123, 250, 311, 399}
	event := func(b *testing.B) {
		n := netsim.New(g, core.New(core.Config{MRouter: 0, Kappa: 1.5}))
		f := n.InstallFaults(netsim.FaultPlan{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				f.ScheduleLinkDown(n.Now(), au, av)
			} else {
				f.ScheduleLinkUp(n.Now(), au, av)
			}
			n.Run()
			for _, s := range consulted {
				n.Delay.Hop(1, s)
				n.Cost.Row(s)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		event(b)
	})
	b.Run("default", event)
}

// BenchmarkDVMRPPruneLifetime is the ablation for design decision 3:
// DVMRP data overhead as a function of the prune timeout (shorter
// timeouts re-flood more often).
func BenchmarkDVMRPPruneLifetime(b *testing.B) {
	cfgFor := func(lifetime des.Time) experiment.Fig89Config {
		return experiment.Fig89Config{
			GroupSizes: []int{16}, Seeds: 2, SimTime: 20, DataRate: 1,
			PruneLifetime: lifetime, Topologies: []string{experiment.TopoRand3},
		}
	}
	lifetimes := []des.Time{2, 5, 10, 30}
	results := map[des.Time]float64{}
	for i := 0; i < b.N; i++ {
		for _, lt := range lifetimes {
			results[lt] = experiment.RunFig89(cfgFor(lt)).Value("data_overhead_mean", experiment.TopoRand3, 16, "DVMRP")
		}
	}
	b.ReportMetric(results[2], "dvmrp_data_t2")
	b.ReportMetric(results[5], "dvmrp_data_t5")
	b.ReportMetric(results[10], "dvmrp_data_t10")
	b.ReportMetric(results[30], "dvmrp_data_t30")
}

// BenchmarkDataPlane is the zero-allocation data-plane benchmark:
// steady-state per-hop cost on the 400-node Waxman instance under a
// Fig. 8/9-style load (40-member SCMP group, single source). Each
// iteration injects one data packet and drains the network, so
// allocs/op is the allocation bill for one packet's full tree fan-out
// (~hops/op link crossings; the delivery ground truth lives in ledger
// blocks of 64 records, so B/op is that block's share per packet).
// events/sec and ns/hop are the throughput metrics.
func BenchmarkDataPlane(b *testing.B) {
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := wg.Graph.ScaleDelays(1e-3)
	s := core.New(core.Config{MRouter: 0, Kappa: 1.5})
	n := netsim.New(g, s)
	rnd := rng.New(7)
	members := make([]topology.NodeID, 0, 40)
	for _, v := range rnd.Perm(g.N()) {
		if v != 0 {
			members = append(members, topology.NodeID(v))
		}
		if len(members) == 40 {
			break
		}
	}
	n.InstallScript(joinScript(members))
	n.Run() // tree installed; steady state from here
	src := members[0]
	startEvents := n.Sched.Fired()
	startHops := totalCrossings(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendData(src, 1, packet.DefaultDataSize)
		n.Run()
	}
	b.StopTimer()
	events := n.Sched.Fired() - startEvents
	hops := totalCrossings(n) - startHops
	if hops == 0 {
		b.Fatal("no link crossings in data phase")
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
}

// totalCrossings sums link crossings over every packet kind.
func totalCrossings(n *netsim.Network) int64 {
	var sum int64
	for k := 0; k < packet.NumKinds; k++ {
		sum += n.Metrics.Crossings(packet.Kind(k))
	}
	return sum
}
