// The allocation-floor cross-check ties the static hotalloc analyzer to
// the dynamic reality it models: cmd/scmplint proves the annotated
// data-plane hot paths (des dispatch, netsim fast path, core
// forwarding) contain no unreviewed allocation sites, and this test
// proves the composition of those paths actually runs allocation-free
// at steady state — if either side drifts, one of the two gates trips.
package scmp_test

import (
	"math/rand"
	"runtime"
	"testing"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/topology"
)

// TestHotPathAllocFloor drives the BenchmarkDataPlane load — one data
// packet fanned out over a 40-member shared tree on the 400-node Waxman
// instance — through testing.AllocsPerRun and asserts the steady-state
// bill is 0 allocs per packet: every per-hop cost is pooled, and the
// delivery ground-truth records live in ledger blocks of 64, whose one
// allocation per 64 packets rounds away in the per-run average. SCMP
// and CBT forward through the same
// netsim.TreeEntry; DVMRP and MOSPF forward from dense per-(source,
// group) state. DVMRP runs twice: with the default prune lifetime,
// which one fan-out on this fixture outlasts, so every packet floods the
// domain and is pruned back; and with prunes that never expire. One
// budget covers all five.
func TestHotPathAllocFloor(t *testing.T) {
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph.ScaleDelays(1e-3)
	for _, tc := range []struct {
		name  string
		proto netsim.Protocol
	}{
		{"SCMP", core.New(core.Config{MRouter: 0, Kappa: 1.5})},
		{"CBT", cbt.New(0)},
		{"DVMRP", dvmrp.New(dvmrp.DefaultPruneLifetime)},
		{"DVMRP/no-expiry", dvmrp.New(1e9)},
		{"MOSPF", mospf.New()},
	} {
		n := netsim.New(g, tc.proto)
		rnd := rand.New(rand.NewSource(7))
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
		n.Run() // tree installed
		src := members[0]

		// Prime the packet pool and any lazy scratch (busy horizons, sink
		// buffers) so the measured runs see steady state.
		for i := 0; i < 16; i++ {
			n.SendData(src, 1, packet.DefaultDataSize)
			n.Run()
		}

		const budget = 0.0
		avg := testing.AllocsPerRun(200, func() {
			n.SendData(src, 1, packet.DefaultDataSize)
			n.Run()
		})
		t.Logf("%s: %.2f allocs per packet fan-out", tc.name, avg)
		if avg > budget {
			t.Errorf("%s data plane allocates %.2f allocs per packet fan-out, budget %.0f; "+
				"run `go run ./cmd/scmplint -only hotalloc ./...` to locate the new allocation site",
				tc.name, avg, budget)
		}
	}
}

// TestReliableRoundTripAllocFloor pins the hardened control plane's
// per-request bill on the 400-node Waxman instance: a member router's
// JOIN and then its LEAVE, each carried by a reliable request slot
// through the m-router's modelled service queue and answered with an
// ACK, beside 40 resident members, with admission control, retry
// budgets and refresh suppression configured. Timers (retransmission,
// service completion, refresh) are typed scheduler events, request
// slots are recycled, and every payload is encoded into scratch that
// the in-flight packet copies into its own buffer, so the cycle pays one
// allocation, the DCDM join's grafted path.
func TestReliableRoundTripAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(core.Config{
		MRouter: 0, Kappa: 1.5,
		AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2,
		ServiceTime: 0.00075, Processors: 1,
		AdmitLimit: 32, RetryBudget: 4, RefreshSuppress: true,
	})
	n := netsim.New(wg.Graph.ScaleDelays(1e-5), s)
	var routers []topology.NodeID // 8 that join and leave, then 40 resident members
	for _, v := range rand.New(rand.NewSource(7)).Perm(n.G.N()) {
		if v != 0 && len(routers) < 48 {
			routers = append(routers, topology.NodeID(v))
		}
	}
	pool := routers[:8]
	for _, m := range routers[8:] {
		n.HostJoin(m, 1)
		n.RunUntil(n.Now() + 0.05)
	}
	settle := func() { n.RunUntil(n.Now() + 0.5) }
	settle()
	i := 0
	cycle := func() {
		v := pool[i%len(pool)]
		i++
		n.HostJoin(v, 1)
		settle()
		n.HostLeave(v, 1)
		settle()
		if s.PendingRequests() != 0 || s.ParkedRequests() != 0 {
			t.Fatalf("router %d: %d requests unacknowledged after the round trip", v, s.PendingRequests()+s.ParkedRequests())
		}
	}
	for k := 0; k < 4*len(pool); k++ { // every pool router's entry, and the scratch, warm
		cycle()
	}
	const budget = 2.0 // per JOIN+LEAVE cycle
	avg := testing.AllocsPerRun(200, cycle)
	t.Logf("%.2f allocs per acknowledged JOIN+LEAVE cycle", avg)
	if avg > budget {
		t.Errorf("hardened JOIN+LEAVE round trip allocates %.2f per cycle, budget %.0f; "+
			"run `go run ./cmd/scmplint -only hotalloc ./...` to locate the new allocation site",
			avg, budget)
	}
}

// TestDCDMAllocFloor pins the incremental DCDM engine's steady-state
// bill: one Join plus one Leave of the same router, on a 400-node tree
// with 128 resident members, must average at most one allocation per
// operation — the grafted path slice the Join hands to its caller.
// Everything else (prune walks, candidate ordering, the bound multiset)
// runs on reused scratch.
func TestDCDMAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	rnd := rand.New(rand.NewSource(7))
	d := mtree.NewDCDM(g, 0, 1.5, nil, nil)
	joined := 0
	for _, v := range rnd.Perm(g.N()) {
		if v == 0 {
			continue
		}
		d.Join(topology.NodeID(v))
		if joined++; joined == 128 {
			break
		}
	}
	var pool []topology.NodeID
	for v := topology.NodeID(1); int(v) < g.N() && len(pool) < 16; v++ {
		if !d.Tree().OnTree(v) {
			pool = append(pool, v)
		}
	}
	if len(pool) == 0 {
		t.Fatal("fixture degenerate: tree covers the whole graph")
	}
	// Warm scratch (candidate ordering buffers, prune stacks, heap
	// capacity) so the measured runs see steady state.
	for i := 0; i < 32; i++ {
		v := pool[i%len(pool)]
		d.Join(v)
		d.Leave(v)
	}

	const budget = 2.0 // per Join+Leave pair: the join's path slice, nothing else
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		v := pool[i%len(pool)]
		i++
		d.Join(v)
		d.Leave(v)
	})
	if avg > budget {
		t.Errorf("steady-state DCDM Join+Leave allocates %.2f per pair, budget %.0f (<=1 per op); "+
			"run `go run ./cmd/scmplint -only hotalloc ./internal/mtree/` to locate the new allocation site",
			avg, budget)
	}
}

// TestDCDMJoinRowAllocFloor pins what a join pays for its two
// shortest-path rows on lazy tables just invalidated, as a fault leaves
// the network's routing store. The first join from a router starts both
// searches sparse: per row one label array, one index array and one
// parent array, 32 slots wide, on a Paths the table's free list hands
// back — 6 objects and about 3 KB, plus the path — and a search that
// outgrows its slots moves its row onto three new arrays. On the
// 2440-node transit-stub (mean degree 2.3) the graft searches of this
// fixture end inside the first 32 slots: 7 objects, and the byte budget
// is what fails if a first touch ever costs n again (two dense rows
// there weigh 2 x 78 KB). On the 400-node Waxman (mean degree 26.6)
// settling the source alone labels most of 32 routers and 64 slots
// would pass n/8, so each row is promoted to the dense layout exactly
// once: 2 x (3 + 3) objects and the path, the two dense rows plus 3 KB.
// A join whose rows are already started — however far each search got,
// in whichever layout — allocates the path alone.
func TestDCDMJoinRowAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ts, _, err := topology.TransitStub(topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		objects float64 // first join from a router
		bytes   uint64
	}{
		{"waxman400", wg.Graph, 13, 32 << 10},
		{"transitstub2440", ts, 7, 8 << 10},
	} {
		g := tc.g
		spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
		d := mtree.NewDCDM(g, 0, 1.5, spDelay, spCost)
		untouch := func() { // every row started again from scratch
			spDelay.Invalidate(nil)
			spCost.Invalidate(nil)
			d.Rebase()
		}
		perm := rand.New(rand.NewSource(7)).Perm(g.N())
		for _, v := range perm[:128] {
			d.Join(topology.NodeID(v))
		}
		var cold []topology.NodeID // off-tree routers nothing has joined from
		for _, v := range perm[128:] {
			if v := topology.NodeID(v); !d.Tree().OnTree(v) {
				cold = append(cold, v)
			}
		}
		const runs = 16
		if len(cold) <= runs {
			t.Fatalf("%s: fixture degenerate: %d untouched off-tree routers", tc.name, len(cold))
		}
		cycle := func() func() {
			i := 0
			return func() { // AllocsPerRun calls it runs+1 times: each router once
				v := cold[i]
				i++
				d.Join(v)
				d.Leave(v)
			}
		}
		// Warm the tree's own scratch (child slices, prune stacks) on the
		// very routers measured, then invalidate the tables so their rows
		// are untouched again.
		testing.AllocsPerRun(runs, cycle())
		untouch()
		avg := testing.AllocsPerRun(runs, cycle())
		t.Logf("%s: %.2f objects per first join", tc.name, avg)
		if avg > tc.objects {
			t.Errorf("%s: first join from a router allocates %.2f objects, budget %.0f", tc.name, avg, tc.objects)
		}
		if avg := testing.AllocsPerRun(runs, cycle()); avg > 1 {
			t.Errorf("%s: join over started rows allocates %.2f objects, budget 1 (the path)", tc.name, avg)
		}
		untouch()
		first := cycle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			first()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per first join", tc.name, per)
		if per > tc.bytes {
			t.Errorf("%s: first join from a router allocates %d bytes, budget %d: its rows must cost what the search labels, not the size of the graph",
				tc.name, per, tc.bytes)
		}
	}
}

// nopProto is a protocol that does nothing, so a measurement sees the
// network layer alone.
type nopProto struct{}

func (nopProto) Name() string                                          { return "nop" }
func (nopProto) Attach(*netsim.Network)                                {}
func (nopProto) HandlePacket(topology.NodeID, *netsim.Packet)          {}
func (nopProto) HostJoin(topology.NodeID, packet.GroupID)              {}
func (nopProto) HostLeave(topology.NodeID, packet.GroupID)             {}
func (nopProto) SendData(topology.NodeID, packet.GroupID, int, uint64) {}

// TestFaultReconvergeAllocFloor pins the cost model of lazy
// reconvergence on the 400-node Waxman, in two arms. Substrate: a
// LinkDown + LinkUp pair with 8 unicast destinations consulted after
// each event allocates O(1) bytes — the two scheduled closures — because
// the routing store is invalidated in place and the rows it retires are
// the arrays the next ones are started on. Fresh rows each time would be
// 8 x 12.9 KB per event. Hardened SCMP with repair on: one group of 8
// members whose m-router loses and regains a tree link. The group's DCDM
// reads the network's own tables across every pair — there is no
// private copy to rebuild — so after the first pair's re-graft a pair
// costs the fault closures and the m-router's rebase: 300-400 bytes
// measured (go1.24, linux/amd64), where two fresh n-slot tables and a
// copy of the arc mask per event came to 51.7 KB. One budget covers
// both arms.
func TestFaultReconvergeAllocFloor(t *testing.T) {
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	const pairs = 50
	perPair := func(pair func()) uint64 {
		pair() // start the rows every later pair recycles
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			pair()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / pairs
	}

	n := netsim.New(g, nopProto{})
	f := n.InstallFaults(netsim.FaultPlan{})
	u, v := topology.NodeID(0), g.Neighbors(0)[0].To
	consulted := []topology.NodeID{0, 7, 42, 99, 123, 250, 311, 399}
	consult := func() {
		n.Run()
		for _, dst := range consulted {
			n.Delay.Hop(1, dst)
		}
		if got := n.Delay.Materialized(); got != len(consulted) {
			t.Fatalf("%d rows started after consulting %d destinations", got, len(consulted))
		}
	}
	const budget = 1 << 10 // bytes per pair, either arm
	per := perPair(func() {
		f.ScheduleLinkDown(n.Now(), u, v)
		consult()
		f.ScheduleLinkUp(n.Now(), u, v)
		consult()
	})
	t.Logf("substrate: %d bytes per fault pair", per)
	if per > budget {
		t.Errorf("fault pair + %d consulted destinations allocates %d bytes, budget %d; "+
			"run `go run ./cmd/scmplint -only hotalloc ./internal/topology/ ./internal/netsim/` to locate the new allocation site",
			len(consulted), per, budget)
	}

	s := core.New(core.Config{MRouter: 0, Kappa: 1.5, AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2})
	n = netsim.New(g.ScaleDelays(1e-7), s)
	f = n.InstallFaults(netsim.FaultPlan{})
	for _, m := range rand.New(rand.NewSource(7)).Perm(g.N())[:8] {
		n.HostJoin(topology.NodeID(m), 1)
	}
	settle := func() {
		n.RunUntil(n.Now() + 4)
		s.Quiesce()
		n.Run()
	}
	settle()
	v = s.GroupTree(1).Children(0)[0]
	d := s.GroupEngine(1)
	per = perPair(func() {
		f.ScheduleLinkDown(n.Now(), 0, v)
		settle()
		f.ScheduleLinkUp(n.Now(), 0, v)
		settle()
		if dd, dc := d.Tables(); dd != n.Delay || dc != n.Cost {
			t.Fatal("the group's DCDM reads tables other than the network's routing store")
		}
	})
	t.Logf("hardened SCMP: %d bytes per fault pair", per)
	if per > budget {
		t.Errorf("hardened SCMP fault pair allocates %d bytes, budget %d", per, budget)
	}
	if p, ok := s.GroupTree(1).Parent(v); ok && p == 0 {
		t.Fatalf("the tree still hangs %d off the m-router: the cut was never repaired around", v)
	}
	seq := n.SendData(0, 1, packet.DefaultDataSize)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("members %v stranded after %d fault pairs", missing, pairs+1)
	}
}

// joinScript joins members to group 1, 0.01 s apart from t=0.
func joinScript(members []topology.NodeID) []netsim.Step {
	steps := make([]netsim.Step, len(members))
	for i, m := range members {
		steps[i] = netsim.Step{At: des.Time(float64(i) * 0.01), Node: int32(m), Group: 1, Kind: netsim.Join}
	}
	return steps
}
