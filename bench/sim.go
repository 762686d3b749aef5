package main

import (
	"fmt"
	"runtime"
	"time"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// sliceCap bounds every drain: a drive or drain that has not gone idle
// after this many slices is a failed run, never a hang (a plain
// Quiesce(); Run() can spin forever on the hardened stack, whose
// service operations re-arm refresh timers).
const sliceCap = 4000

// memberOp is one offered membership operation, as the protocol saw it.
type memberOp struct {
	join  bool
	node  topology.NodeID
	group packet.GroupID
}

type joinKey struct {
	node  topology.NodeID
	group packet.GroupID
}

// timedProto is the harness-owned netsim.Protocol wrapper of a traced
// repetition: it times the calls netsim makes into core, records the
// offered membership sequence for the standalone mtree replay, and
// measures join latency (HostJoin until the DR's entry is first on-tree
// with a local interface). It schedules nothing and sends nothing, so a
// traced run simulates exactly what an untraced one does — the digest
// comparison proves it. Work core does from its own timers (refresh,
// retransmission, service completion) never passes through here and is
// invisible to it. core.SCMP has no netsim.BatchLeaver side, so the
// wrapper has none either: same-instant leaves reach both one by one.
type timedProto struct {
	inner *core.SCMP
	net   *netsim.Network

	handlerNs int64 // time inside core; data packets sampled 1-in-8 and scaled
	packets   int64
	tick      uint32

	ops     []memberOp
	pending map[joinKey]des.Time
	joinLat []float64 // simulated milliseconds

	// faultT0 is set by the harness just before it schedules a fault
	// event; the fault listener callback closes the interval, which
	// covers netsim's route recompute (topology.NextHopAvoid).
	faultT0     time.Time
	recomputeNs int64
	recomputes  int
}

var (
	_ netsim.Protocol      = (*timedProto)(nil)
	_ netsim.ParallelSafe  = (*timedProto)(nil)
	_ netsim.FaultListener = (*timedProto)(nil)
)

func (w *timedProto) Name() string { return w.inner.Name() }

func (w *timedProto) Attach(n *netsim.Network) {
	w.net = n
	w.inner.Attach(n)
}

func (w *timedProto) ParallelWindowSafe() bool { return w.inner.ParallelWindowSafe() }

func (w *timedProto) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	w.packets++
	if pkt.Kind == packet.Data {
		// The per-hop data path is uniform and by far the most frequent
		// call: timing one in eight keeps the clock reads off the rest.
		w.tick++
		if w.tick&7 != 0 {
			w.inner.HandlePacket(node, pkt)
			return
		}
		t0 := time.Now()
		w.inner.HandlePacket(node, pkt)
		w.handlerNs += 8 * int64(time.Since(t0))
		return
	}
	t0 := time.Now()
	w.inner.HandlePacket(node, pkt)
	w.handlerNs += int64(time.Since(t0))
	if pkt.Kind == packet.Tree || pkt.Kind == packet.Branch {
		w.checkJoined(node, pkt.Group)
	}
}

func (w *timedProto) checkJoined(node topology.NodeID, g packet.GroupID) {
	k := joinKey{node, g}
	t0, ok := w.pending[k]
	if !ok {
		return
	}
	if e, ok := w.inner.Entry(node, g); ok && e.OnTree && e.HasLocal {
		w.joinLat = append(w.joinLat, float64(w.net.Now()-t0)*1000)
		delete(w.pending, k)
	}
}

func (w *timedProto) HostJoin(node topology.NodeID, g packet.GroupID) {
	w.ops = append(w.ops, memberOp{true, node, g})
	if _, dup := w.pending[joinKey{node, g}]; !dup {
		w.pending[joinKey{node, g}] = w.net.Now()
	}
	t0 := time.Now()
	w.inner.HostJoin(node, g)
	w.handlerNs += int64(time.Since(t0))
	w.checkJoined(node, g)
}

func (w *timedProto) HostLeave(node topology.NodeID, g packet.GroupID) {
	w.ops = append(w.ops, memberOp{false, node, g})
	delete(w.pending, joinKey{node, g})
	t0 := time.Now()
	w.inner.HostLeave(node, g)
	w.handlerNs += int64(time.Since(t0))
}

func (w *timedProto) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	t0 := time.Now()
	w.inner.SendData(src, g, size, seq)
	w.handlerNs += int64(time.Since(t0))
}

// fault closes the route-recompute interval and times core's reaction.
func (w *timedProto) fault(react func()) {
	if !w.faultT0.IsZero() {
		w.recomputeNs += int64(time.Since(w.faultT0))
		w.recomputes++
		w.faultT0 = time.Time{}
	}
	t0 := time.Now()
	react()
	w.handlerNs += int64(time.Since(t0))
}

func (w *timedProto) LinkDown(u, v topology.NodeID) { w.fault(func() { w.inner.LinkDown(u, v) }) }
func (w *timedProto) LinkUp(u, v topology.NodeID)   { w.fault(func() { w.inner.LinkUp(u, v) }) }
func (w *timedProto) NodeDown(n topology.NodeID)    { w.fault(func() { w.inner.NodeDown(n) }) }
func (w *timedProto) NodeUp(n topology.NodeID)      { w.fault(func() { w.inner.NodeUp(n) }) }

// sim is one simulated domain under measurement: the graph, the SCMP
// instance, the network, and the samples taken at slice boundaries.
type sim struct {
	c *ctx
	g *topology.Graph
	s *core.SCMP
	w *timedProto // nil in untraced repetitions
	n *netsim.Network

	slice des.Time
	// hardened marks a stack with self-sustaining timers (refresh,
	// retransmission): its drains must Quiesce before every slice.
	hardened bool
	// inline marks an m-router without a service time: it computes trees
	// inside HandlePacket, so the wrapper's core time contains mtree's
	// and topology's (see layerProbes).
	inline bool

	slices      int
	pendSum     float64
	pendPeak    int
	backlogPeak int
	heapPeak    uint64
}

// newSim builds the network (the netsim.new span covers the eager
// next-hop table, the CSR and core's Attach). slice is the simulated
// length of one drive slice.
func (c *ctx) newSim(g *topology.Graph, cfg core.Config, slice des.Time) *sim {
	x := &sim{c: c, g: g, s: core.New(cfg), slice: slice,
		hardened: cfg.RefreshInterval > 0 || cfg.AckTimeout > 0,
		inline:   cfg.ServiceTime <= 0}
	var proto netsim.Protocol = x.s
	if c.traced {
		x.w = &timedProto{inner: x.s, pending: map[joinKey]des.Time{}}
		proto = x.w
	}
	c.in("netsim.new", func() { x.n = netsim.New(g, proto) })
	return x
}

// sample reads the scheduler depth and the m-router backlog at a slice
// boundary. Both are plain reads, taken in traced and untraced runs
// alike so the two execute identically; the heap reading stops the
// world and is taken only when tracing.
func (x *sim) sample() {
	x.slices++
	p := x.n.Sched.Pending()
	x.pendSum += float64(p)
	if p > x.pendPeak {
		x.pendPeak = p
	}
	if b := x.s.ControlBacklog(); b > x.backlogPeak {
		x.backlogPeak = b
	}
	if x.c.traced && x.slices&15 == 0 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > x.heapPeak {
			x.heapPeak = m.HeapAlloc
		}
	}
}

// pendingMean is the scheduler depth averaged over the slice boundaries.
func (x *sim) pendingMean() float64 {
	if x.slices == 0 {
		return 0
	}
	return x.pendSum / float64(x.slices)
}

// advance runs the simulation to time t, slice by slice.
func (x *sim) advance(t des.Time) {
	for now := x.n.Now(); now < t; now = x.n.Now() {
		next := now + x.slice
		if next > t {
			next = t
		}
		x.n.RunUntil(next)
		x.sample()
	}
}

// settle drains the network: one slice at a time until nothing is
// pending, cancelling a hardened stack's self-sustaining timers before
// each slice. Hitting sliceCap marks the run failed instead of hanging.
func (x *sim) settle() {
	for i := 0; x.n.Sched.Pending() > 0; i++ {
		if i >= sliceCap {
			x.c.fail("drain still busy after %d slices (pending=%d)", sliceCap, x.n.Sched.Pending())
			return
		}
		if x.hardened {
			x.s.Quiesce()
		}
		x.n.RunUntil(x.n.Now() + x.slice)
		x.sample()
	}
}

// probe sends one data packet from src to the group on the settled
// network, validates the m-router's tree, and checks exactly-once
// delivery to every member. Each expected delivery is one operation;
// stranded members and duplicate or unexpected deliveries fail theirs.
func (x *sim) probe(src topology.NodeID, g packet.GroupID) {
	seq := x.n.SendData(src, g, packet.DefaultDataSize)
	x.settle()
	x.checkDelivery(seq, src, g)
	if tr := x.s.GroupTree(g); tr != nil {
		if err := tr.Validate(); err != nil {
			x.c.fail("group %d: tree invalid: %v", g, err)
		}
	}
}

func (x *sim) checkDelivery(seq uint64, src topology.NodeID, g packet.GroupID) {
	expected := len(x.n.Members(g))
	if x.n.IsMember(src, g) {
		expected--
	}
	missing, anomalous := x.n.CheckDelivery(seq)
	x.c.res.OpsAttempted += int64(expected)
	x.c.res.OpsFailed += int64(len(missing) + len(anomalous))
}

// record writes the simulated statistics of the finished run into the
// digest and the per-layer counters every simulated workload shares.
func (x *sim) record(groups []packet.GroupID, ops int) {
	c, m := x.c, x.n.Metrics
	c.exact("events", float64(x.n.EventsFired()))
	ctrl, data := int64(0), int64(0)
	for k := packet.Kind(0); int(k) < packet.NumKinds; k++ {
		n := m.Crossings(k)
		if n == 0 {
			continue
		}
		c.digest("crossings."+k.String(), n)
		if packet.ClassOf(k) == packet.ClassProtocol {
			ctrl += n
		} else {
			data += n
		}
	}
	c.exact("ctrl_overhead_units", m.ProtocolOverhead())
	c.exact("data_overhead_units", m.DataOverhead())
	c.exact("data_delay_ms_max", m.MaxEndToEndDelay()*1000)
	c.exact("delivered", float64(m.Delivered()))
	c.exact("drops_ctrl", float64(m.DroppedControl()))
	c.exact("drops_data", float64(m.Dropped()))
	c.exact("recoveries", float64(m.Recoveries()))
	c.exact("recovery_ms_max", m.MaxRecovery()*1000)
	c.exact("restructures", float64(m.Restructures()))
	c.exact("stranded", float64(c.res.OpsFailed))
	for _, g := range groups {
		c.digest(fmt.Sprintf("members.%d", g), x.n.Members(g))
		if tr := x.s.GroupTree(g); tr != nil {
			c.digest(fmt.Sprintf("tree.%d", g), tr.Size(), " ", tr.Cost(), " ", tr.TreeDelay())
		}
	}
	if !c.traced {
		return
	}
	c.layer("des.events", float64(x.n.EventsFired()))
	c.layer("des.pending_peak", float64(x.pendPeak))
	c.layer("des.pending_mean", x.pendingMean())
	c.layer("netsim.crossings_data", float64(data))
	c.layer("netsim.crossings_ctrl", float64(ctrl))
	c.layer("netsim.drops_ctrl", float64(m.DroppedControl()))
	c.layer("netsim.drops_data", float64(m.Dropped()))
	c.layer("netsim.new_s", c.spanTotal("netsim.new"))
	c.layer("netsim.install_churn_s", c.spanTotal("netsim.install_churn"))
	c.layer("topology.gen_s", c.spanTotal("topology.gen"))
	c.layer("runtime.heap_peak_mb", float64(x.heapPeak)/(1<<20))
	for _, phase := range []string{"send", "join", "churn", "settle", "probe"} {
		c.layer("drive."+phase+"_s", c.spanTotal("drive."+phase))
	}

	c.layer("core.handler_s", float64(x.w.handlerNs)/1e9)
	c.layer("core.packets_handled", float64(x.w.packets))
	if ops > 0 {
		c.layer("core.ctrl_per_op", float64(ctrl)/float64(ops))
	}
	c.layer("core.backlog_peak", float64(x.backlogPeak))
	c.layer("core.service_wait_ms_max", x.s.ServiceStats().MaxWait*1000)
	c.layer("core.sheds", float64(m.Sheds()))
	c.layer("core.parks", float64(m.Parks()))
	c.layer("core.park_recovers", float64(m.ParkRecovers()))
	c.layer("core.refresh_skips", float64(m.RefreshSkips()))
	c.layer("core.recoveries", float64(m.Recoveries()))
	c.layer("core.recovery_ms_mean", m.MeanRecovery()*1000)
	maxState := 0
	for v := 0; v < x.g.N(); v++ {
		if e := x.s.StateEntries(topology.NodeID(v)); e > maxState {
			maxState = e
		}
	}
	c.layer("core.state_entries_max", float64(maxState))
	c.layer("topology.nexthop_avoid_s", float64(x.w.recomputeNs)/1e9)
	c.layer("topology.avoid_rows", float64(x.w.recomputes*x.g.N()))

	c.tail("sim.join_latency", "ms", tailOf(x.w.joinLat))
	c.layer("sim.ctrl_overhead_units", m.ProtocolOverhead())
	c.layer("sim.data_delay_ms_max", m.MaxEndToEndDelay()*1000)
	c.layer("sim.recovery_ms_max", m.MaxRecovery()*1000)
}

// --- input generation --------------------------------------------------

// maxDegreeNode is the harness's m-router placement: the best-connected
// router (lowest id on ties) — cheap to find at any graph size, unlike
// the all-pairs centre the small paper topologies use.
func maxDegreeNode(g *topology.Graph) topology.NodeID {
	best := topology.NodeID(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(topology.NodeID(v)) > g.Degree(best) {
			best = topology.NodeID(v)
		}
	}
	return best
}

// pickNodes draws k distinct routers, never exclude, in draw order.
func pickNodes(r *rng.Rand, n, k int, exclude topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, k)
	for _, v := range r.Perm(n) {
		if topology.NodeID(v) == exclude {
			continue
		}
		if len(out) == k {
			break
		}
		out = append(out, topology.NodeID(v))
	}
	if len(out) < k {
		panic(fmt.Sprintf("bench: %d routers requested from a %d-node graph", k, n))
	}
	return out
}

func genWaxman(c *ctx, n int, delayScale float64) *topology.Graph {
	defer c.span("topology.gen")()
	wg, err := topology.Waxman(topology.DefaultWaxman(n), rng.New(c.seed))
	if err != nil {
		panic(err)
	}
	return wg.Graph.ScaleDelays(delayScale)
}

func genRandom(c *ctx, n int, degree, delayScale float64) *topology.Graph {
	defer c.span("topology.gen")()
	g, err := topology.Random(topology.DefaultRandom(n, degree), rng.New(c.seed))
	if err != nil {
		panic(err)
	}
	return g.ScaleDelays(delayScale)
}
