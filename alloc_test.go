// The allocation floors are the one gate of the simulator's
// zero-allocation contract. Each drives an entry point at steady state
// through testing.AllocsPerRun (or the heap's byte counter) and fails
// when it pays more than its budget: that sees through interface
// dispatch and escaping values alike. A failure names the memory-profile
// recipe that locates the new allocation site. DESIGN.md §11 lists the
// floors here and in the des, netsim, topology, packet and core tests.
package scmp_test

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/rng"
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
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng.New(1))
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
			t.Errorf("%s data plane allocates %.2f allocs per packet fan-out, budget %.0f; locate the new site with "+
				"`go test -run '^TestHotPathAllocFloor$' -memprofile mem.out -memprofilerate 1 .` and "+
				"`go tool pprof -sample_index alloc_objects -top mem.out`, then `-list` the function it names",
				tc.name, avg, budget)
		}
	}
}

// TestDCDMAllocFloor pins the incremental DCDM engine's steady-state
// bill: one Join plus one Leave of the same router, on a 400-node tree
// with 128 resident members, must average at most one allocation per
// operation — the grafted path slice the Join hands to its caller.
// Everything else (prune walks, candidate ordering, the bound rescan)
// runs on reused scratch. Two arms: routers nearer the m-router than
// the farthest resident, whose leave keeps the bound, and routers
// farther than every resident, whose join raises the bound and whose
// leave removes the member at the maximum, so the bound's member rescan
// runs inside every measured pair.
func TestDCDMAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	const kappa = 1.5
	d := newDCDM(g, 0, kappa)
	// The 16 routers farthest from the m-router are kept off the
	// resident tree, so each is farther than every resident.
	byUL := make([]topology.NodeID, g.N()-1)
	for i := range byUL {
		byUL[i] = topology.NodeID(i + 1)
	}
	slices.SortFunc(byUL, func(a, b topology.NodeID) int { return cmp.Compare(d.UnicastDelay(b), d.UnicastDelay(a)) })
	farthest := byUL[:16]
	joined := 0
	for _, v := range rng.New(7).Perm(g.N()) {
		if v == 0 || slices.Contains(farthest, topology.NodeID(v)) {
			continue
		}
		d.Join(topology.NodeID(v))
		if joined++; joined == 128 {
			break
		}
	}
	bound := d.Bound()
	var near, far []topology.NodeID
	for v := topology.NodeID(1); int(v) < g.N() && len(near) < 16; v++ {
		if !d.Tree().OnTree(v) && kappa*d.UnicastDelay(v) < bound {
			near = append(near, v)
		}
	}
	for _, v := range farthest {
		if !d.Tree().OnTree(v) {
			far = append(far, v)
		}
	}
	for _, tc := range []struct {
		name string
		pool []topology.NodeID
	}{
		{"near", near},
		{"farthest", far},
	} {
		if len(tc.pool) == 0 {
			t.Fatalf("%s: fixture degenerate: no off-tree router in the pool", tc.name)
		}
		// Warm scratch (candidate ordering buffers, prune stacks, heap
		// capacity) so the measured runs see steady state, and check
		// that each arm moves the bound as its name says.
		for i := 0; i < 32; i++ {
			v := tc.pool[i%len(tc.pool)]
			d.Join(v)
			if raised := d.Bound() > bound; raised != (tc.name == "farthest") {
				t.Fatalf("%s: joining %d raised the bound = %v", tc.name, v, raised)
			}
			d.Leave(v)
			if d.Bound() != bound {
				t.Fatalf("%s: leaving %d left the bound at %v, want %v", tc.name, v, d.Bound(), bound)
			}
		}
		const budget = 1.0 // per Join+Leave pair: the join's path slice, nothing else
		i := 0
		avg := testing.AllocsPerRun(200, func() {
			v := tc.pool[i%len(tc.pool)]
			i++
			d.Join(v)
			d.Leave(v)
		})
		t.Logf("%s: %.2f allocs per Join+Leave pair", tc.name, avg)
		if avg > budget {
			t.Errorf("%s: steady-state DCDM Join+Leave allocates %.2f per pair, budget %.0f; locate the new site with "+
				"`go test -run '^TestDCDMAllocFloor$' -memprofile mem.out -memprofilerate 1 .` and "+
				"`go tool pprof -sample_index alloc_objects -top mem.out`, then `-list` the function it names",
				tc.name, avg, budget)
		}
	}
}

// newDCDM is mtree.NewDCDM over a lazy table pair of its own, for a
// floor whose group shares no tables.
func newDCDM(g *topology.Graph, root topology.NodeID, kappa float64) *mtree.DCDM {
	return mtree.NewDCDM(g, root, kappa, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
}

// TestHierDCDMAllocFloor pins the hierarchical engine's steady-state
// bill: one Join plus one Leave of the same router on the 2440-node
// transit-stub (one domain per transit and stub domain), beside 128
// resident members, with every joining router in a domain that stays
// active, so no join activates a domain and no leave releases one.
// Each join pays its local DCDM's
// graft path and the path translated to global ids; the rest is the
// per-domain engines' lookups and the composed tree's bookkeeping run
// on reused scratch. The budget is the count this fixture measures
// (go1.24, linux/amd64). Activating a domain builds its local engine
// and is off this budget.
func TestHierDCDMAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	g, info, err := topology.TransitStub(topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	view, err := topology.NewDomainView(g, info.Domain)
	if err != nil {
		t.Fatal(err)
	}
	h := mtree.NewHierDCDM(view, view.MRouters(), 0, 1.5)
	perm := rng.New(7).Perm(g.N())
	active := make([]bool, view.K())
	for _, v := range perm[:128] {
		active[h.Join(topology.NodeID(v)).Domain] = true
	}
	var pool []topology.NodeID // off-tree routers of domains with residents
	for _, v := range perm[128:] {
		if v := topology.NodeID(v); !h.Tree().OnTree(v) && active[view.Domain(v)] && len(pool) < 16 {
			pool = append(pool, v)
		}
	}
	cycle := func(i int) {
		v := pool[i%len(pool)]
		if res := h.Join(v); res.Activated {
			t.Fatalf("router %d's join activated domain %d: the fixture must keep every domain active", v, res.Domain)
		}
		if res := h.Leave(v); res.Deactivated {
			t.Fatalf("router %d's leave released domain %d", v, res.Domain)
		}
	}
	for i := 0; i < 32; i++ { // warm every engine's scratch
		cycle(i)
	}
	const budget = 2.0 // per Join+Leave pair: the local path and its global translation
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		cycle(i)
		i++
	})
	t.Logf("%.2f allocs per hierarchical Join+Leave pair", avg)
	if avg > budget {
		t.Errorf("steady-state HierDCDM Join+Leave allocates %.2f per pair, budget %.0f; locate the new site with "+
			"`go test -run '^TestHierDCDMAllocFloor$' -memprofile mem.out -memprofilerate 1 .` and "+
			"`go tool pprof -sample_index alloc_objects -top mem.out`, then `-list` the function it names",
			avg, budget)
	}
}

// TestTreeDelayAllocFloor: reading a router's multicast delay off a
// tree is a cache load, on the tree and off it. The domains study reads
// it per member per sample.
func TestTreeDelayAllocFloor(t *testing.T) {
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d := newDCDM(wg.Graph, 0, 1.5)
	for _, v := range rng.New(7).Perm(wg.Graph.N())[:64] {
		d.Join(topology.NodeID(v))
	}
	tree := d.Tree()
	sum := 0.0
	avg := testing.AllocsPerRun(200, func() {
		for v := 0; v < wg.Graph.N(); v++ {
			if dl := tree.Delay(topology.NodeID(v)); !math.IsInf(dl, 1) {
				sum += dl
			}
		}
	})
	if sum == 0 {
		t.Fatal("fixture degenerate: no on-tree delay read")
	}
	if avg > 0 {
		t.Errorf("Tree.Delay over every router allocates %.2f per sweep, budget 0; locate the new site with "+
			"`go test -run '^TestTreeDelayAllocFloor$' -memprofile mem.out -memprofilerate 1 .` and "+
			"`go tool pprof -sample_index alloc_objects -top mem.out`, then `-list` the function it names", avg)
	}
}

// TestDCDMJoinRowAllocFloor pins what a join pays for its two
// shortest-path rows on lazy tables just invalidated, as a fault leaves
// the network's routing store. Invalidate retires each table's kept
// rows to its free list and leaves its scratch row in place, and a
// first join from a router restarts those arrays, clearing only what
// their last search labelled, instead of allocating. So on the
// 2440-node transit-stub (mean degree 2.3), whose graft searches stay
// in the scratch, and on the 400-node Waxman (mean degree 26.6), whose
// searches label past keepAt and are kept, a first join allocates the
// path alone: 1 object. The byte budget is what fails if a first join
// ever allocates a row again: a row weighs 32n bytes, 12.5 KB on the
// Waxman graph and 78 KB on the transit-stub. A join whose rows are
// already started — kept, or searched again in the scratch — also
// allocates the path alone.
func TestDCDMJoinRowAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ts, _, err := topology.TransitStub(topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		objects float64 // first join from a router
		bytes   uint64
	}{
		{"waxman400", wg.Graph, 1, 64},
		{"transitstub2440", ts, 1, 64},
	} {
		g := tc.g
		spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
		d := mtree.NewDCDM(g, 0, 1.5, spDelay, spCost)
		untouch := func() { // every row started again from scratch
			spDelay.Invalidate(nil)
			spCost.Invalidate(nil)
			d.Rebase()
		}
		perm := rng.New(7).Perm(g.N())
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

// joinScript joins members to group 1, 0.01 s apart from t=0.
func joinScript(members []topology.NodeID) []netsim.Step {
	steps := make([]netsim.Step, len(members))
	for i, m := range members {
		steps[i] = netsim.Step{At: des.Time(float64(i) * 0.01), Node: int32(m), Group: 1, Kind: netsim.Join}
	}
	return steps
}
