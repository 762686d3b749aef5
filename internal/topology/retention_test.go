package topology_test

import (
	"runtime"
	"testing"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// TestTablesKeepOnlyDenseRows joins 256 routers, one DCDM join each, on
// the 2440-node transit-stub and checks what the two tables hold after:
// only the rows worth completing — exactly the counts below, against
// the sources started — and no heap the joins left behind beyond them,
// at most 32n bytes for each kept row and each table's n-wide scratch
// plus 64 KB for the tree's growth. A table that kept the search row of
// every member that ever joined holds hundreds of rows the joins
// stopped needing. Two GC cycles settle each heap reading: the first
// leaves pooled garbage for the second.
func TestTablesKeepOnlyDenseRows(t *testing.T) {
	g, _, err := topology.TransitStub(topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	d := mtree.NewDCDM(g, 0, 1.5, spDelay, spCost)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, v := range rng.New(7).Perm(g.N())[:256] {
		d.Join(topology.NodeID(v))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	rows := 0
	for i, want := range []struct{ kept, started int }{{3, 229}, {2, 228}} {
		w, ap := topology.Weight(i), []*topology.AllPairs{spDelay, spCost}[i] // ByDelay, ByCost
		kept, started := ap.KeptRows(), ap.Materialized()
		t.Logf("%s table: %d rows kept, %d sources started", w, kept, started)
		if kept != want.kept || started != want.started {
			t.Errorf("%s table keeps %d rows of %d sources started, want %d of %d", w, kept, started, want.kept, want.started)
		}
		rows += kept + 1 // and the scratch
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	budget := int64(rows)*32*int64(g.N()) + 64<<10
	t.Logf("%d bytes retained, budget %d for %d rows", retained, budget, rows)
	if retained > budget {
		t.Errorf("%d bytes retained after 256 joins, budget %d: the tables hold more than their %d rows", retained, budget, rows)
	}
	runtime.KeepAlive(d)
}
