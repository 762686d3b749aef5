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
// only dense rows, the ones worth completing, and no heap the joins
// left behind beyond them — at most 32n bytes a row plus 64 KB for the
// two scratch rows and the tree's growth. A table that kept the sparse
// search row of every member that ever joined holds hundreds of rows
// the joins stopped needing. Two GC cycles settle each heap reading:
// the first leaves pooled garbage for the second.
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
	dense := 0
	for i, ap := range []*topology.AllPairs{spDelay, spCost} {
		w := topology.Weight(i) // ByDelay, ByCost
		kept, sparse := ap.KeptRows()
		t.Logf("%s table: %d rows kept, %d sparse, %d sources started", w, kept, sparse, ap.Materialized())
		if sparse > 0 {
			t.Errorf("%s table keeps %d sparse rows of %d: a sparse search must not outlive the scratch", w, sparse, kept)
		}
		dense += kept - sparse
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	budget := int64(dense)*32*int64(g.N()) + 64<<10
	t.Logf("%d bytes retained, budget %d for %d dense rows", retained, budget, dense)
	if retained > budget {
		t.Errorf("%d bytes retained after 256 joins, budget %d: the tables hold more than their %d dense rows", retained, budget, dense)
	}
	runtime.KeepAlive(d)
}
