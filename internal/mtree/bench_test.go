package mtree

import (
	"cmp"
	"slices"
	"testing"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// Benchmarks for the incremental DCDM engine, each paired with its
// *Ref twin running the preserved historical implementation on the
// identical fixture — the ratio is the speedup the incremental caches
// buy (the PR's acceptance floor is 5x on steady-state joins).
//
// The fixture is the ISSUE's sizing: a 400-node Waxman graph with 128
// members on the tree, which is where the O(m) delay walks and bound
// rescans of the old engine start to dominate.

type dcdmBenchFixture struct {
	g       *topology.Graph
	spDelay *topology.AllPairs
	spCost  *topology.AllPairs
	members []topology.NodeID // the 128 resident members
	pool    []topology.NodeID // off-tree nodes cycled through join/leave
	churn   []churnOp         // net-zero scripted churn for the Churn pair
}

func newDCDMBenchFixture(b *testing.B) *dcdmBenchFixture {
	b.Helper()
	rng := rng.New(1)
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rng)
	if err != nil {
		b.Fatal(err)
	}
	f := &dcdmBenchFixture{
		g:       wg.Graph,
		spDelay: topology.NewLazyAllPairs(wg.Graph, topology.ByDelay),
		spCost:  topology.NewLazyAllPairs(wg.Graph, topology.ByCost),
	}
	f.members = pickMembers(rng, f.g.N(), 128, 0)

	// The pool is drawn from nodes that stay off the resident tree, so
	// each benchmark pair is a real graft + prune, not an AlreadyOn hit.
	d := NewDCDM(f.g, 0, 1.5, f.spDelay, f.spCost)
	for _, m := range f.members {
		d.Join(m)
	}
	for v := topology.NodeID(1); v < topology.NodeID(f.g.N()) && len(f.pool) < 64; v++ {
		if !d.Tree().OnTree(v) {
			f.pool = append(f.pool, v)
		}
	}
	if len(f.pool) < 8 {
		b.Fatal("fixture degenerate: tree covers almost the whole graph")
	}

	// A net-zero churn script: every member that joins during the
	// script leaves again, so a fresh engine can replay it repeatedly.
	script := pickMembers(rng, f.g.N(), 128, 0)
	for _, m := range script {
		f.churn = append(f.churn, churnOp{member: m, join: true})
	}
	perm := rng.Perm(len(script))
	for _, i := range perm {
		f.churn = append(f.churn, churnOp{member: script[i], join: false})
	}
	return f
}

// prejoin stands up the resident 128-member tree on either engine.
func (f *dcdmBenchFixture) prejoinFast(kappa float64) *DCDM {
	d := NewDCDM(f.g, 0, kappa, f.spDelay, f.spCost)
	for _, m := range f.members {
		d.Join(m)
	}
	return d
}

func (f *dcdmBenchFixture) prejoinRef(kappa float64) *dcdmRef {
	d := newDCDMRef(f.g, 0, kappa, f.spDelay, f.spCost)
	for _, m := range f.members {
		d.Join(m)
	}
	return d
}

// BenchmarkDCDMJoin measures a steady-state membership cycle: one Join
// of an off-tree router followed by its Leave, at m=128 residents.
func BenchmarkDCDMJoin(b *testing.B) {
	f := newDCDMBenchFixture(b)
	d := f.prejoinFast(1.5)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := f.pool[i%len(f.pool)]
		d.Join(v)
		d.Leave(v)
	}
}

func BenchmarkDCDMJoinRef(b *testing.B) {
	f := newDCDMBenchFixture(b)
	d := f.prejoinRef(1.5)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := f.pool[i%len(f.pool)]
		d.Join(v)
		d.Leave(v)
	}
}

// BenchmarkDCDMJoinCold is the same cycle when the joining router's
// shortest-path rows are untouched, on the benchmark's join_scale
// graph: a 2440-node transit-stub, lazy tables, 128 residents. Every
// timed join starts both of its rows and searches them as far as the
// graft needs; the tables are invalidated (untimed) every 256 joins,
// which also bounds the resident rows.
func BenchmarkDCDMJoinCold(b *testing.B) {
	cfg := topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}
	g, _, err := topology.TransitStub(cfg, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	fresh := func() {
		spDelay.Invalidate(nil)
		spCost.Invalidate(nil)
	}
	d := NewDCDM(g, 0, 1.5, spDelay, spCost)
	rng := rng.New(1)
	for _, m := range pickMembers(rng, g.N(), 128, 0) {
		d.Join(m)
	}
	var cold []topology.NodeID
	for _, v := range rng.Perm(g.N()) {
		if v := topology.NodeID(v); !d.Tree().OnTree(v) && len(cold) < 256 {
			cold = append(cold, v)
		}
	}
	fresh()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(cold) == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		v := cold[i%len(cold)]
		d.Join(v)
		d.Leave(v)
	}
}

// BenchmarkDCDMLeave measures departures: 32 members leave one by one,
// then rejoin to restore the resident tree.
func BenchmarkDCDMLeave(b *testing.B) {
	f := newDCDMBenchFixture(b)
	d := f.prejoinFast(1.5)
	batch := f.members[:32]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range batch {
			d.Leave(m)
		}
		for _, m := range batch {
			d.Join(m)
		}
	}
}

// BenchmarkDCDMLeaveFarthestFirst is the bound's adversarial order: all
// 128 members leave farthest first, so every leave removes the maximum
// and rescans the remaining members, then rejoin in their original
// order to rebuild the resident tree.
func BenchmarkDCDMLeaveFarthestFirst(b *testing.B) {
	f := newDCDMBenchFixture(b)
	d := f.prejoinFast(1.5)
	order := slices.Clone(f.members)
	slices.SortStableFunc(order, func(x, y topology.NodeID) int {
		return -cmp.Compare(d.UnicastDelay(x), d.UnicastDelay(y))
	})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range order {
			d.Leave(m)
		}
		for _, m := range f.members {
			d.Join(m)
		}
	}
}

func BenchmarkDCDMLeaveRef(b *testing.B) {
	f := newDCDMBenchFixture(b)
	d := f.prejoinRef(1.5)
	batch := f.members[:32]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range batch {
			d.Leave(m)
		}
		for _, m := range batch {
			d.Join(m)
		}
	}
}

// BenchmarkDCDMChurn replays a 256-op net-zero churn script on a fresh
// engine each iteration — the whole-lifecycle cost including tree
// growth from empty.
func BenchmarkDCDMChurn(b *testing.B) {
	f := newDCDMBenchFixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDCDM(f.g, 0, 1.5, f.spDelay, f.spCost)
		for _, op := range f.churn {
			if op.join {
				d.Join(op.member)
			} else {
				d.Leave(op.member)
			}
		}
	}
}

func BenchmarkDCDMChurnRef(b *testing.B) {
	f := newDCDMBenchFixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := newDCDMRef(f.g, 0, 1.5, f.spDelay, f.spCost)
		for _, op := range f.churn {
			if op.join {
				d.Join(op.member)
			} else {
				d.Leave(op.member)
			}
		}
	}
}
