package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"scmp/internal/des"
	"scmp/internal/experiment"
	"scmp/internal/mtree"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// Per-layer probes: after a traced repetition's drive, each layer's
// public functions are called standalone on the workload's own inputs
// (its graph, its offered operations, its final tree) and timed from
// outside. Nothing here touches the finished simulation's statistics.

// The standalone replays are bounded so the traced repetition stays
// inside the run's time budget: at most replayOps operations, touching
// at most replayRows distinct routers (each costs two all-pairs rows to
// warm, the expensive part on a large graph).
const (
	replayOps  = 40_000
	replayRows = 512
)

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timeLoop calls fn iters times and returns nanoseconds and
// allocations per call.
func timeLoop(iters int, fn func()) (ns, allocs float64) {
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	d := time.Since(t0)
	return float64(d.Nanoseconds()) / float64(iters), float64(mallocs()-m0) / float64(iters)
}

// tail records a per-operation timing distribution under its four
// names: <base>_<unit>_p50, <base>_<unit>_hi, <base>_hi_pct, <base>_n.
func (c *ctx) tail(base, unit string, t tailStat) {
	c.layer(base+"_"+unit+"_p50", t.p50)
	c.layer(base+"_"+unit+"_hi", t.hi)
	c.layer(base+"_hi_pct", t.hiPct)
	c.layer(base+"_n", float64(t.n))
}

// layerProbes runs every probe of a simulated workload.
func (x *sim) layerProbes(groups []packet.GroupID) {
	if !x.c.traced {
		return
	}
	defer x.c.span("layers")()
	// No collection during the probes: a cycle landing inside one per-op
	// timing would be charged to that layer. The collector's own share of
	// the drive is runtime.gc_cpu_share.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rowUs, rows := x.probeTopology()
	opUs, ops := x.probeMtree()
	x.probeDES()
	x.probeNetsim(groups[0])
	x.probePacket(groups[0])

	// core's own share of the drive. The wrapper's time is inclusive:
	// an m-router without a service time computes trees inside
	// HandlePacket, so there the standalone figures for the rows it
	// materialised and the tree operations it ran are taken out — a
	// layer's self time is its span minus what its callees cover. With a
	// service time the tree work runs from a timer the wrapper never
	// sees, and nothing is subtracted.
	self := x.c.res.Layers["core.handler_s"] // the drive's; the probes above added their own
	if x.inline {
		self = max(0, self-(rowUs*rows+opUs*ops)/1e6)
	}
	x.c.layer("core.handler_share", self/x.c.res.Metrics["wall_s"])
}

// probeTopology times what the workload asks of the routing tables:
// the eager next-hop build netsim.New performs, and the lazy all-pairs
// rows the m-router's DCDM consults — a delay and a cost row per
// distinct member router. It returns the mean row time and how many
// rows the drive materialised.
func (x *sim) probeTopology() (rowUs, rows float64) {
	c, n := x.c, x.g.N()
	done := c.span("topology.nexthop")
	topology.NextHop(x.g)
	done()
	c.layer("topology.nexthop_s", c.spanTotal("topology.nexthop"))

	seen := map[topology.NodeID]bool{x.s.MRouter(): true}
	srcs := []topology.NodeID{x.s.MRouter()}
	for _, op := range x.w.ops {
		if !seen[op.node] {
			seen[op.node] = true
			if len(srcs) < replayRows {
				srcs = append(srcs, op.node)
			}
		}
	}
	done = c.span("topology.rows")
	ap := topology.NewLazyAllPairs(x.g, topology.ByDelay)
	us := make([]float64, 0, len(srcs))
	m0 := mallocs()
	for _, s := range srcs {
		t0 := time.Now()
		ap.Row(s)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	allocs := mallocs() - m0
	done()
	c.tail("topology.row", "us", tailOf(us))
	c.layer("topology.allocs_per_row", float64(allocs)/float64(len(srcs)))
	// The n x n next-hop table plus the delay and cost rows DCDM holds.
	c.layer("topology.table_mb", (float64(n)*float64(n)*8+2*float64(ap.MemoryBytes()))/(1<<20))
	total := 0.0
	for _, v := range us {
		total += v
	}
	return total / float64(len(us)), 2 * float64(len(seen))
}

// probeMtree replays the membership sequence the protocol was offered
// against fresh standalone DCDM engines, one per group, timing every
// Join and Leave. Path rows are warmed first: row cost is topology's.
// It returns the mean operation time and how many the drive offered.
func (x *sim) probeMtree() (opUs, offered float64) {
	c := x.c
	defer c.span("mtree.replay")()
	spD := topology.NewLazyAllPairs(x.g, topology.ByDelay)
	spC := topology.NewLazyAllPairs(x.g, topology.ByCost)
	root := x.s.MRouter()
	spD.Row(root)
	spC.Row(root)
	var ops []memberOp
	warmed := map[topology.NodeID]bool{}
	for _, op := range x.w.ops {
		if len(ops) == replayOps {
			break
		}
		if !warmed[op.node] {
			if len(warmed) == replayRows {
				continue
			}
			warmed[op.node] = true
			spD.Row(op.node)
			spC.Row(op.node)
		}
		ops = append(ops, op)
	}

	// Engine construction: time and retained heap of NewDCDM's dense state.
	const engines = 32
	keep := make([]*mtree.DCDM, engines)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := range keep {
		keep[i] = mtree.NewDCDM(x.g, root, 1.5, spD, spC)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / engines
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	c.layer("mtree.new_engine_us", ns/1e3)
	c.layer("mtree.engine_kb", float64(m1.HeapAlloc-m0.HeapAlloc)/engines/1024)

	byGroup := map[packet.GroupID]*mtree.DCDM{}
	var joinUs, leaveUs []float64
	restructures := 0
	a0 := mallocs()
	for _, op := range ops {
		d := byGroup[op.group]
		if d == nil {
			d = mtree.NewDCDM(x.g, root, 1.5, spD, spC)
			byGroup[op.group] = d
		}
		t0 := time.Now()
		if op.join {
			if d.Join(op.node).Restructured {
				restructures++
			}
			joinUs = append(joinUs, float64(time.Since(t0).Nanoseconds())/1e3)
		} else {
			d.Leave(op.node)
			leaveUs = append(leaveUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	allocs := mallocs() - a0
	c.tail("mtree.join", "us", tailOf(joinUs))
	c.tail("mtree.leave", "us", tailOf(leaveUs))
	c.layer("mtree.ops", float64(len(ops)))
	if len(ops) == 0 {
		return 0, 0
	}
	c.layer("mtree.allocs_per_op", float64(allocs)/float64(len(ops)))
	c.layer("mtree.restructures_per_op", float64(restructures)/float64(len(ops)))
	total := 0.0
	for _, v := range append(joinUs, leaveUs...) {
		total += v
	}
	return total / float64(len(ops)), float64(len(x.w.ops))
}

// chainSink keeps a bare scheduler at constant depth: every fired
// event schedules its successor a fixed stride ahead.
type chainSink struct {
	s      *des.Scheduler
	stride des.Time
	left   int
}

func (k *chainSink) SinkEvent(op uint8, a, b int32, p any, flag bool) {
	if k.left > 0 {
		k.left--
		k.s.AtSink(k.s.Now()+k.stride, op, a, b, p, flag)
	}
}

// probeDES times the bare scheduler — AtSink + Run with a sink that
// does nothing but keep the queue at the depth the workload's drive
// averaged — so scheduler cost can be told from handler cost.
func (x *sim) probeDES() {
	c := x.c
	defer c.span("des.bare")()
	depth := max(1, int(x.pendingMean()))
	const events = 1_000_000
	s := des.New()
	k := &chainSink{s: s, stride: des.Time(depth), left: events}
	s.SetSink(k)
	payload := &struct{}{}
	for i := 0; i < depth; i++ {
		s.AtSink(des.Time(i), 0, int32(i), 0, payload, false)
	}
	m0 := mallocs()
	t0 := time.Now()
	s.Run()
	d := time.Since(t0)
	c.layer("des.ns_per_event_bare", float64(d.Nanoseconds())/float64(s.Fired()))
	c.layer("des.allocs_per_kevent_bare", 1000*float64(mallocs()-m0)/float64(s.Fired()))
}

// probeNetsim sends data only, from the m-router down the installed
// tree of the finished network, and charges the time to link crossings.
func (x *sim) probeNetsim(g packet.GroupID) {
	c := x.c
	defer c.span("netsim.data_only")()
	const packets = 2000
	mr := x.s.MRouter()
	before := x.n.Metrics.Crossings(packet.Data)
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < packets; i++ {
		x.n.SendData(mr, g, packet.DefaultDataSize)
		if i&63 == 63 {
			x.settle()
		}
	}
	x.settle()
	d := time.Since(t0)
	allocs := mallocs() - m0
	if hops := x.n.Metrics.Crossings(packet.Data) - before; hops > 0 {
		c.layer("netsim.ns_per_hop", float64(d.Nanoseconds())/float64(hops))
	}
	c.layer("netsim.allocs_per_packet", float64(allocs)/packets)
}

// probePacket times the codecs on what the workload actually ships:
// the TREE encoding of the final tree, and BRANCH for the path to the
// median member.
func (x *sim) probePacket(g packet.GroupID) {
	c := x.c
	defer c.span("packet.codecs")()
	tr := x.s.GroupTree(g)
	if tr == nil {
		return
	}
	sub := packet.BuildSubtree(tr, tr.Root())
	enc := packet.EncodeSubtree(sub)
	const iters = 200
	ns, _ := timeLoop(iters, func() { enc = packet.EncodeSubtree(sub) })
	c.layer("packet.tree_encode_ns", ns)
	ns, allocs := timeLoop(iters, func() {
		if _, err := packet.DecodeSubtree(enc); err != nil {
			c.fail("packet: TREE decode of own encoding: %v", err)
		}
	})
	c.layer("packet.tree_decode_ns", ns)
	c.layer("packet.allocs_per_decode", allocs)
	c.layer("packet.tree_bytes", float64(len(enc)))

	path := []topology.NodeID{tr.Root()}
	if ms := tr.Members(); len(ms) > 0 {
		path = tr.PathToRoot(ms[len(ms)/2])
	}
	ns, _ = timeLoop(iters*10, func() {
		if _, err := packet.DecodeBranch(packet.EncodeBranch(path)); err != nil {
			c.fail("packet: BRANCH decode of own encoding: %v", err)
		}
	})
	c.layer("packet.branch_codec_ns", ns)
	ns, _ = timeLoop(iters*10, func() {
		if _, err := packet.DecodeAck(packet.EncodeAck(packet.AckInfo{Req: packet.Join, Seq: 7})); err != nil {
			c.fail("packet: ACK decode of own encoding: %v", err)
		}
	})
	c.layer("packet.ack_codec_ns", ns)
}

// paperSweepLayers fills the sweep's spans in, and times the one engine
// the sweep leans on that no simulated workload reaches: hierarchical
// joins on the domains study's topology.
func (c *ctx) paperSweepLayers() {
	if !c.traced {
		return
	}
	for _, name := range []string{"fig7", "fig89", "fig7x", "placement", "state", "concentration", "faults", "domains", "render"} {
		c.layer("experiment."+name+"_s", c.spanTotal("experiment."+name))
	}
	defer c.span("layers")()
	cfg := experiment.DefaultDomains()
	if c.smoke {
		cfg.Topology.TransitSize, cfg.Topology.StubSize, cfg.Members = 4, 12, 48
	}
	g, info, err := topology.TransitStub(cfg.Topology, rng.New(1))
	if err != nil {
		panic(err)
	}
	view, err := topology.NewDomainView(g, experiment.DomainLabels(cfg.Topology, info, experiment.GroupAttach))
	if err != nil {
		panic(err)
	}
	h := mtree.NewHierDCDM(view, view.MRouters(), 0, cfg.Kappa)
	var us []float64
	for _, m := range pickNodes(rng.New(7), g.N(), cfg.Members, -1) {
		t0 := time.Now()
		h.Join(m)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	c.layer("mtree.hier_join_us_p50", tailOf(us).p50)
}
