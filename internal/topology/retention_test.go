package topology_test

import (
	"runtime"
	"testing"

	"scmp/internal/mtree"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// reuseModel predicts, from outside the table, which rows a table keeps
// as DCDM's graft searches come and go in its scratch row: the scratch's
// search is kept when the next search from another source begins, if
// its own source had searched before, since the table was built, and it
// labelled more than keepAt routers.
type reuseModel struct {
	ap       *topology.AllPairs
	searched []bool          // sources whose search has begun
	src      topology.NodeID // the scratch's search: its source,
	labelled int             // how far it got,
	again    bool            // and whether it is a repeat
	kept     int             // rows the rule has kept so far
	repeats  int             // repeat searches, kept or not
}

// joined reads the scratch after a join from s: if it now holds s's
// search, the search before it was kept or restarted by the rule.
func (m *reuseModel) joined(s topology.NodeID) {
	src, labelled := m.ap.Scratch()
	if src != s {
		return // no search began: s's row was kept, or the join grafted its direct path
	}
	if src != m.src {
		if m.again && m.labelled > m.ap.KeepAt() {
			m.kept++
		}
		m.src, m.again = s, m.searched[s]
		m.searched[s] = true
		if m.again {
			m.repeats++
		}
	}
	m.labelled = labelled
}

// TestTablesKeepOnlyRepeatSearches is the reuse oracle of the routing
// tables: a table keeps a graft search's row only when its source
// searches again. On the 2440-node transit-stub, 256 routers join, one
// DCDM join each, and the tables keep nothing of theirs — a fresh
// table is the state Invalidate leaves, so first joins after one add no
// kept rows — only the m-router's delay Row, which every join reads.
// Then every member leaves and the first 32 rejoin in their first
// order, so each repeat search runs against the tree its first search
// saw: the tables keep exactly the repeat searches that labelled more
// than keepAt routers (see reuseModel), and no heap beyond them, at
// most 32n bytes for each of those rows and each table's n-wide
// scratch, plus 64 KB for the tree's growth. A table that keeps first
// searches fails the counts; one that keeps every repeat, however
// short, holds rows past the budget. Two GC cycles settle each heap
// reading: the first leaves pooled garbage for the second.
func TestTablesKeepOnlyRepeatSearches(t *testing.T) {
	g, _, err := topology.TransitStub(topology.TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	spDelay, spCost := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	d := mtree.NewDCDM(g, 0, 1.5, spDelay, spCost)
	models := []*reuseModel{{ap: spDelay}, {ap: spCost}}
	for _, m := range models {
		m.searched, m.src = make([]bool, g.N()), -1
	}
	join := func(v topology.NodeID) {
		d.Join(v)
		for _, m := range models {
			m.joined(v)
		}
	}
	// The sources started, in both passes: the 228 members whose first
	// join searched, and the m-router's Row in the delay table.
	started := [2]int{229, 228}
	check := func(pass string, kept [2]int) {
		t.Helper()
		for i, ap := range []*topology.AllPairs{spDelay, spCost} {
			t.Logf("%s: %s table keeps %d rows, %d sources started, %d repeat searches", pass, topology.Weight(i), ap.KeptRows(), ap.Materialized(), models[i].repeats)
			if ap.KeptRows() != kept[i] || ap.Materialized() != started[i] {
				t.Errorf("%s: %s table keeps %d rows of %d sources started, want %d of %d", pass, topology.Weight(i), ap.KeptRows(), ap.Materialized(), kept[i], started[i])
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	members := rng.New(7).Perm(g.N())[:256]
	for _, v := range members {
		join(topology.NodeID(v))
	}
	if models[0].repeats+models[1].repeats != 0 {
		t.Fatalf("fixture degenerate: the first joins searched %d and %d times again", models[0].repeats, models[1].repeats)
	}
	check("first joins", [2]int{1, 0}) // the m-router's delay Row

	for _, v := range members {
		d.Leave(topology.NodeID(v))
	}
	for _, v := range members[:32] {
		join(topology.NodeID(v))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := [2]int{1 + models[0].kept, models[1].kept}
	check("rejoins", kept)
	for i, m := range models {
		if m.kept == 0 || m.kept == m.repeats {
			t.Fatalf("fixture degenerate: %s table kept %d of %d repeat searches; both outcomes must occur", topology.Weight(i), m.kept, m.repeats)
		}
	}
	rows := kept[0] + kept[1] + 2 // and each scratch
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	budget := int64(rows)*32*int64(g.N()) + 64<<10
	t.Logf("%d bytes retained, budget %d for %d rows", retained, budget, rows)
	if retained > budget {
		t.Errorf("%d bytes retained after the joins, budget %d: the tables hold more than their %d rows", retained, budget, rows)
	}
	runtime.KeepAlive(d)
}
