package topology

import (
	"testing"

	"scmp/internal/rng"
)

// Routing-engine benchmarks (the perf gate for the CSR/4-ary-heap
// rewrite). Run with allocation counting via:
//
//	go test -bench 'Shortest|AllPairs|NextHopTable' -benchmem -run '^$' ./internal/topology/
//
// BenchmarkShortest compares the preserved container/heap reference
// against the fast engine, fresh-allocating and buffer-reusing;
// BenchmarkAllPairs compares a reference loop with a lazy table
// completed row by row, and with one that starts only 16 rows.

// benchGraph is the 400-node Waxman instance the acceptance criteria
// are measured on.
func benchGraph(b testing.TB) *Graph {
	b.Helper()
	wg, err := Waxman(DefaultWaxman(400), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return wg.Graph
}

func BenchmarkShortest(b *testing.B) {
	g := benchGraph(b)
	g.CSR() // build outside the timed region; all variants share it
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shortestRef(g, NodeID(i%g.N()), ByDelay, nil)
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shortestAvoid(g, NodeID(i%g.N()), ByDelay, nil)
		}
	})
	b.Run("engine-reuse", func(b *testing.B) {
		var row Paths
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ShortestInto(&row, NodeID(i%g.N()), ByDelay)
		}
	})
	// The same run under a fault mask (one link down): the arc mask is
	// one load per arc the loop already indexes, so this arm should
	// read within a few percent of engine-reuse.
	b.Run("engine-reuse-masked", func(b *testing.B) {
		var row Paths
		v := g.Neighbors(0)[0].To
		down := arcMask(g, func(x, y NodeID) bool { return (x == 0 && y == v) || (x == v && y == 0) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row.start(g.N(), NodeID(i%g.N()), ByDelay, false)
			row.advance(g.CSR(), ByDelay, down, g.N(), -1)
		}
	})
}

func BenchmarkAllPairs(b *testing.B) {
	g := benchGraph(b)
	g.CSR()
	b.Run("ref-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.N(); u++ {
				shortestRef(g, NodeID(u), ByDelay, nil)
			}
		}
	})
	b.Run("lazy-all-rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ap := NewLazyAllPairs(g, ByDelay)
			for u := 0; u < g.N(); u++ {
				ap.Row(NodeID(u))
			}
		}
	})
	// Lazy pays only for consulted rows: the typical fault-recompute
	// pattern touches a handful of sources, not all n.
	b.Run("lazy-16rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ap := NewLazyAllPairs(g, ByDelay)
			for u := 0; u < 16; u++ {
				ap.Row(NodeID(u))
			}
		}
	})
}

// BenchmarkNextHopTable is the forwarding table's worst case: every
// router consulted as a destination, one complete row each, serial
// because rows are started where they are read. Building the table
// itself is a row-pointer slice.
func BenchmarkNextHopTable(b *testing.B) {
	g := benchGraph(b)
	g.CSR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NextHop(g)
		for v := 0; v < g.N(); v++ {
			t.Hop(0, NodeID(v))
		}
	}
}
