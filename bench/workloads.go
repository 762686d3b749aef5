package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/experiment"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// workload is one set of inputs the benchmark runs. Sizes come in two
// frozen sets: the calibrated one every reported number uses, and a
// smoke one small enough for `go test`.
type workload struct {
	name string
	why  string
	run  func(c *ctx)
}

// workloads lists the five workloads in report order. The names are
// the contract with BENCHMARK.json; the whys are copied there.
var workloads = []workload{
	{"data_fanout", "steady data forwarding on one installed tree: des, netsim link forwarding and core's per-hop handler do all the work, topology and mtree none after set-up", runDataFanout},
	{"churn_hardened", "membership flapping under control loss on the hardened stack: core's reliable send and service queue, des timers, mtree Join/Leave and packet codecs dominate; topology is too small to matter", runChurnHardened},
	{"join_scale", "many groups on a 2440-node transit-stub: lazy all-pairs rows, per-group DCDM state and long TREE/BRANCH paths dominate, memory is the constraint and des is nearly idle", runJoinScale},
	{"fault_repair", "tree-edge cut/restore cycles under data traffic: every fault event recomputes the unicast tables for all n sources (topology rebuilds, not lookups); the only workload on core's repair path", runFaultRepair},
	{"paper_sweep", "the entry point users run: the paper's figure sweeps plus the faults and domains studies, with the DVMRP/MOSPF/CBT baselines, runner and rendering; its digest is the byte-identical-tables contract", runPaperSweep},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pick returns the frozen size, or the smoke size in a smoke run.
func pick[T any](c *ctx, frozen, smoke T) T {
	if c.smoke {
		return smoke
	}
	return frozen
}

const group1 = packet.GroupID(1)

// --- data_fanout ---------------------------------------------------------

type fanoutSize struct {
	nodes, members, batch int
	events                uint64 // event budget of the timed drive
}

// The drive runs to an event budget, not a packet count: the tree (and
// so the events per packet) differs from seed to seed, and a fixed
// budget keeps the measured work the same for all of them.
func runDataFanout(c *ctx) {
	sz := pick(c, fanoutSize{400, 160, 64, 5_000_000}, fanoutSize{60, 20, 16, 40_000})
	c.beginSetup()
	g := genWaxman(c, sz.nodes, 1e-6)
	mr := maxDegreeNode(g)
	x := c.newSim(g, core.Config{MRouter: mr, Kappa: 1.5}, 0.02)
	members := pickNodes(rng.New(c.seed+1), g.N(), sz.members, mr)
	for i, m := range members {
		m := m
		x.n.Sched.At(des.Time(i)*0.25, func() { x.n.HostJoin(m, group1) })
	}
	x.advance(des.Time(len(members)) * 0.25)
	x.settle()
	tree := x.s.GroupTree(group1)
	// Four sources: two on-tree members, two off-tree routers that must
	// encapsulate to the m-router.
	srcs := []topology.NodeID{members[0], members[1]}
	for _, v := range rng.New(c.seed + 2).Perm(g.N()) {
		if len(srcs) == 4 {
			break
		}
		if !tree.OnTree(topology.NodeID(v)) {
			srcs = append(srcs, topology.NodeID(v))
		}
	}
	type sent struct {
		seq uint64
		src topology.NodeID
	}
	var log []sent
	k := 0
	batch := func() {
		for i := 0; i < sz.batch; i++ {
			src := srcs[k%len(srcs)]
			log = append(log, sent{x.n.SendData(src, group1, packet.DefaultDataSize), src})
			k++
		}
		x.settle()
	}
	batch() // warm the packet pool and the scheduler slab

	c.beginDrive()
	start := x.n.EventsFired()
	c.in("drive.send", func() {
		for x.n.EventsFired()-start < sz.events {
			batch()
		}
	})
	c.in("drive.probe", func() { x.probe(mr, group1) })
	c.endDrive(x.n.EventsFired()-start, x)

	for _, p := range log {
		x.checkDelivery(p.seq, p.src, group1)
	}
	c.exact("packets", float64(len(log)))
	x.record([]packet.GroupID{group1}, len(members))
	x.layerProbes([]packet.GroupID{group1})
}

// --- churn_hardened ------------------------------------------------------

type churnSize struct {
	nodes, members int
	rate           float64 // membership events per simulated second
	events         float64 // event budget of the timed drive
	settle         float64
}

const (
	// churnPilot is how much simulated time the set-up pilot runs.
	churnPilot = 5.0
	// churnChunk is how much of the flap schedule is installed at a time,
	// as the churn experiment does for its whole 5 s window: the
	// scheduler then holds ten thousand pre-generated events, not the
	// whole run's quarter million.
	churnChunk = 5.0
)

// The control-plane configuration is BenchmarkChurn's: reliable
// signalling, a slow single-processor m-router, and all three overload
// defences. How many events a simulated second of churn costs depends
// on how far the seed's members sit from the m-router, so set-up runs a
// short pilot on the same inputs and sizes the drive to the same event
// budget for every seed.
func runChurnHardened(c *ctx) {
	sz := pick(c, churnSize{100, 32, 2000, 3_000_000, 10}, churnSize{40, 10, 400, 12_000, 4})
	c.beginSetup()
	g := genRandom(c, sz.nodes, 3, 1e-3)
	cfg := core.Config{
		MRouter: maxDegreeNode(g), Kappa: 1.5,
		AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2,
		ServiceTime: 0.00075, Processors: 1,
		AdmitLimit: 32, RetryBudget: 4, RefreshSuppress: true,
	}
	members := pickNodes(rng.New(c.seed+1), g.N(), sz.members, cfg.MRouter)
	plan := func(start, length float64) netsim.ChurnPlan {
		return netsim.ChurnPlan{
			Group: group1, Members: members, Rate: sz.rate,
			Start: start, Duration: length, Seed: c.seed + 2 + int64(start),
		}
	}
	loss := func(until float64) netsim.FaultPlan {
		return netsim.FaultPlan{ControlLoss: 0.05, LossUntil: des.Time(until), Seed: c.seed + 3}
	}
	pilot := netsim.New(g, core.New(cfg))
	pilot.InstallChurn(plan(0, churnPilot))
	pilot.InstallFaults(loss(churnPilot))
	pilot.RunUntil(churnPilot)
	duration := sz.events / (float64(pilot.EventsFired()) / churnPilot)

	x := c.newSim(g, cfg, 1)
	x.n.InstallFaults(loss(duration))

	c.beginDrive()
	ops := 0
	c.in("drive.churn", func() {
		for t0 := 0.0; t0 < duration; t0 += churnChunk {
			length := min(churnChunk, duration-t0)
			c.in("netsim.install_churn", func() { ops += x.n.InstallChurn(plan(t0, length)).Events() })
			x.advance(des.Time(t0 + length))
		}
	})
	c.in("drive.settle", func() {
		x.advance(des.Time(duration + sz.settle))
		x.settle()
	})
	c.in("drive.probe", func() { x.probe(cfg.MRouter, group1) })
	c.endDrive(x.n.EventsFired(), x)

	c.res.OpsAttempted += int64(ops)
	c.exact("churn_events", float64(ops))
	c.exact("churn_seconds", duration)
	x.record([]packet.GroupID{group1}, ops)
	x.layerProbes([]packet.GroupID{group1})
}

// --- join_scale ----------------------------------------------------------

type joinSize struct {
	ts              topology.TransitStubConfig
	groups, members int
}

// joinSpacing is the simulated gap between membership operations: above
// the worst path round trip, so no two operations are in flight at once
// (the issue's prototype saw fire-and-forget SCMP strand members below
// it; see README, Findings).
const joinSpacing = 0.25

func runJoinScale(c *ctx) {
	sz := pick(c,
		joinSize{topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, 32, 128},
		joinSize{topology.TransitStubConfig{TransitDomains: 2, TransitSize: 3, StubsPerTransitNode: 2, StubSize: 8, EdgeProb: 0.4}, 3, 12})
	c.beginSetup()
	var g *topology.Graph
	c.in("topology.gen", func() {
		raw, _, err := topology.TransitStub(sz.ts, rng.New(c.seed))
		if err != nil {
			panic(err)
		}
		g = raw.ScaleDelays(1e-4)
	})
	mr := topology.NodeID(0) // a transit router
	x := c.newSim(g, core.Config{MRouter: mr, Kappa: 1.5}, 8)
	groups := make([]packet.GroupID, sz.groups)
	members := make([][]topology.NodeID, sz.groups)
	draws := rng.New(c.seed + 1)
	for i := range groups {
		groups[i] = packet.GroupID(i + 1)
		members[i] = pickNodes(rng.Split(draws), g.N(), sz.members, mr)
	}

	c.beginDrive()
	// offer schedules one group's operations joinSpacing apart and runs
	// the network through them.
	offer := func(g packet.GroupID, nodes []topology.NodeID, join bool) {
		t0 := x.n.Now()
		for j, m := range nodes {
			m := m
			at := t0 + des.Time(j)*joinSpacing
			if join {
				x.n.Sched.At(at, func() { x.n.HostJoin(m, g) })
			} else {
				x.n.Sched.At(at, func() { x.n.HostLeave(m, g) })
			}
		}
		x.advance(t0 + des.Time(len(nodes))*joinSpacing)
	}
	c.in("drive.join", func() {
		for i, g := range groups {
			offer(g, members[i], true)
		}
	})
	c.in("drive.churn", func() {
		for i, g := range groups {
			offer(g, members[i][:sz.members/2], false)
		}
	})
	c.in("drive.settle", x.settle)
	c.in("drive.probe", func() {
		for _, g := range groups {
			x.probe(mr, g)
		}
	})
	c.endDrive(x.n.EventsFired(), x)
	ops := sz.groups * (sz.members + sz.members/2)

	c.res.OpsAttempted += int64(ops)
	x.record(groups, ops)
	x.layerProbes(groups)
}

// --- fault_repair --------------------------------------------------------

type faultSize struct {
	nodes, members, cycles int
	period                 float64 // simulated seconds per cut/restore cycle
}

func runFaultRepair(c *ctx) {
	sz := pick(c, faultSize{400, 48, 10, 6}, faultSize{60, 10, 2, 6})
	c.beginSetup()
	g := genWaxman(c, sz.nodes, 1e-7)
	mr := maxDegreeNode(g)
	x := c.newSim(g, core.Config{
		MRouter: mr, Kappa: 1.5,
		AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2,
	}, 0.5)
	f := x.n.InstallFaults(netsim.FaultPlan{Seed: c.seed + 3})
	members := pickNodes(rng.New(c.seed+1), g.N(), sz.members, mr)
	for i, m := range members {
		m := m
		x.n.Sched.At(des.Time(i)*0.01, func() { x.n.HostJoin(m, group1) })
	}
	x.advance(2)

	c.beginDrive()
	start := x.n.EventsFired()
	edges := rng.New(c.seed + 2)
	// mark opens the route-recompute interval the wrapper closes when
	// netsim notifies it of the fault it is about to schedule.
	mark := func() {
		if x.w != nil {
			x.w.faultT0 = time.Now()
		}
	}
	cycle := func() {
		t0 := x.n.Now()
		for i := 0; des.Time(i)*0.1 < des.Time(sz.period); i++ {
			x.n.Sched.At(t0+des.Time(i)*0.1, func() { x.n.SendData(mr, group1, packet.DefaultDataSize) })
		}
		var u, v topology.NodeID
		x.n.Sched.At(t0+0.05, func() {
			// Cut a random edge of the tree as it stands now.
			tree := x.s.GroupTree(group1)
			nodes := tree.Nodes() // sorted, root included
			for {
				v = nodes[edges.Intn(len(nodes))]
				if p, ok := tree.Parent(v); ok {
					u = p
					break
				}
			}
			f.ScheduleLinkDown(x.n.Now(), u, v)
			mark()
		})
		x.n.Sched.At(t0+des.Time(sz.period)/2, func() {
			f.ScheduleLinkUp(x.n.Now(), u, v)
			mark()
		})
		x.advance(t0 + des.Time(sz.period))
	}
	c.in("drive.churn", func() {
		for k := 0; k < sz.cycles; k++ {
			cycle()
		}
	})
	c.in("drive.settle", func() {
		x.advance(x.n.Now() + 4) // two refresh intervals after the last heal
		x.settle()
	})
	c.in("drive.probe", func() { x.probe(mr, group1) })
	c.endDrive(x.n.EventsFired()-start, x)

	c.res.OpsAttempted += int64(len(members))
	x.record([]packet.GroupID{group1}, len(members))
	x.layerProbes([]packet.GroupID{group1})
}

// --- paper_sweep ---------------------------------------------------------

// sweepLevel selects the sweep's size: the published default
// configurations, scmpsim's -quick ones, or a one-seed miniature.
type sweepLevel int

const (
	sweepTiny sweepLevel = iota
	sweepQuick
	sweepDefault
)

// runSweep runs the eight studies serially (Parallel: 1) and renders
// them with the package's own Write* functions, returning the sha256
// of the tables. The experiments seed themselves (seeds 0..Seeds-1), so
// the benchmark seed does not reach them: the sweep's inputs are the
// published configurations, fixed.
func runSweep(c *ctx, level sweepLevel, spans bool) string {
	// Each study returns its renderer, so the experiment.<study> spans
	// cover the simulations and experiment.render the table writing.
	var renders []func(io.Writer)
	study := func(name string, run func() func(io.Writer)) {
		if spans {
			defer c.span("experiment." + name)()
		}
		renders = append(renders, run())
	}
	seeds := func(def, quick int) int {
		switch level {
		case sweepTiny:
			return 1
		case sweepQuick:
			return quick
		}
		return def
	}
	small := level != sweepDefault

	study("fig7", func() func(io.Writer) {
		cfg := experiment.DefaultFig7()
		if small {
			cfg.Nodes, cfg.GroupSizes = 50, []int{10, 25, 45}
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 3), 1
		points := experiment.RunFig7(cfg)
		return func(w io.Writer) { experiment.WriteFig7(w, points) }
	})
	study("fig89", func() func(io.Writer) {
		cfg := experiment.DefaultFig89()
		if small {
			cfg.GroupSizes, cfg.SimTime = []int{8, 24, 40}, 10
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 3), 1
		points := experiment.RunFig89(cfg)
		return func(w io.Writer) {
			experiment.WriteFig8(w, points)
			experiment.WriteFig9(w, points)
		}
	})
	study("fig7x", func() func(io.Writer) {
		cfg := experiment.DefaultFig7x()
		if small {
			cfg.GroupSize = 12
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 2), 1
		points := experiment.RunFig7x(cfg)
		return func(w io.Writer) { experiment.WriteFig7x(w, points) }
	})
	study("placement", func() func(io.Writer) {
		cfg := experiment.DefaultPlacement()
		if small {
			cfg.Trials, cfg.Nodes = 4, 50
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 2), 1
		points := experiment.RunPlacement(cfg)
		return func(w io.Writer) { experiment.WritePlacement(w, points) }
	})
	study("state", func() func(io.Writer) {
		cfg := experiment.DefaultState()
		if small {
			cfg.Groups, cfg.Nodes = []int{1, 4}, 30
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 2), 1
		points := experiment.RunState(cfg)
		return func(w io.Writer) { experiment.WriteState(w, points) }
	})
	study("concentration", func() func(io.Writer) {
		cfg := experiment.DefaultConcentration()
		if small {
			cfg.Nodes, cfg.Rounds = 30, 2
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 2), 1
		points := experiment.RunConcentration(cfg)
		return func(w io.Writer) { experiment.WriteConcentration(w, points) }
	})
	study("faults", func() func(io.Writer) {
		cfg := experiment.DefaultFaults()
		if small {
			cfg.LossRates, cfg.SimTime, cfg.GroupSize = []float64{0, 0.05}, 10, 8
		}
		cfg.Seeds, cfg.Parallel = seeds(cfg.Seeds, 3), 1
		res := experiment.RunFaults(cfg)
		return func(w io.Writer) { experiment.WriteFaults(w, res) }
	})
	study("domains", func() func(io.Writer) {
		cfg := experiment.DefaultDomains()
		if small {
			cfg.Topology.TransitSize, cfg.Topology.StubSize, cfg.Members = 4, 12, 48
		}
		// One seed even at the default level: the three-seed study alone
		// is longer than every other workload's whole drive.
		cfg.Seeds, cfg.Parallel = 1, 1
		points := experiment.RunDomains(cfg)
		return func(w io.Writer) { experiment.WriteDomains(w, points) }
	})
	done := func() {}
	if spans {
		done = c.span("experiment.render")
	}
	var out bytes.Buffer
	for _, render := range renders {
		render(&out)
	}
	sum := sha256.Sum256(out.Bytes())
	done()
	c.exact(fmt.Sprintf("table_bytes.%d", level), float64(out.Len()))
	return hex.EncodeToString(sum[:])
}

// sweepStudies is the number of studies in one sweep: the workload's
// operation count.
const sweepStudies = 8

// Set-up is the -quick sweep, run first the way a user smoke-tests the
// pipeline before the long run; its tables are digested too.
func runPaperSweep(c *ctx) {
	c.beginSetup()
	c.digest("tables.setup", runSweep(c, pick(c, sweepQuick, sweepTiny), false))
	c.beginDrive()
	tables := runSweep(c, pick(c, sweepDefault, sweepTiny), true)
	c.endDrive(0)
	c.digest("tables", tables)
	c.res.OpsAttempted += sweepStudies
	c.paperSweepLayers()
}
