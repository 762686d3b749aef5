package topology

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"scmp/internal/rng"
)

// checkClean holds a row's labels against its own search: a router
// the search has labelled is queued at its heap index or settled, and
// every other router reads Delay and Cost +Inf, Parent -1 and pos
// unseen — nothing an earlier search on the same arrays labelled is
// left behind. Run after a restart, it is what catches one that clears
// too little: the stale labels of routers the new search never reaches
// show nowhere else until a complete row hands them out as first hops.
func checkClean(t *testing.T, label string, p *Paths) {
	t.Helper()
	n := len(p.order)
	labelled := make([]bool, n)
	for i, v := range p.order[:p.queued] {
		if labelled[v] = true; p.pos[v] != int32(i) {
			t.Fatalf("%s: router %d queued at %d has pos %d", label, v, i, p.pos[v])
		}
	}
	for _, v := range p.order[n-p.settled:] {
		if labelled[v] = true; p.pos[v] != posSettled {
			t.Fatalf("%s: settled router %d has pos %d", label, v, p.pos[v])
		}
	}
	for v := range n {
		if !labelled[v] && (!math.IsInf(p.Delay[v], 1) || !math.IsInf(p.Cost[v], 1) || p.Parent[v] != -1 || p.pos[v] != posUnseen) {
			t.Fatalf("%s: router %d outside the search reads delay %v cost %v parent %d pos %d", label, v, p.Delay[v], p.Cost[v], p.Parent[v], p.pos[v])
		}
	}
}

// checkSuspended holds a row, wherever its search stands, against the
// complete one-shot row: every settled node agrees bit for bit (labels,
// parent, path), every other node reads as unreachable through the
// cursor, the settle order is strictly ascending on the (dist, id)
// ladder, and the row is clean (see checkClean).
func checkSuspended(t *testing.T, label string, ap *AllPairs, src NodeID, full *Paths) {
	t.Helper()
	c := ap.Near(src)
	p := c.p
	checkClean(t, label, p)
	pathStride := 1 + len(full.Dist)/128
	for v := range full.Dist {
		v := NodeID(v)
		if !c.final(v) {
			if !math.IsInf(c.Delay(v), 1) || !math.IsInf(c.Cost(v), 1) || c.To(v) != nil {
				t.Fatalf("%s: unsettled node %d reported: delay %v cost %v path %v", label, v, c.Delay(v), c.Cost(v), c.To(v))
			}
			continue
		}
		if c.Delay(v) != full.Delay[v] || c.Cost(v) != full.Cost[v] || p.Dist[v] != full.Dist[v] || p.Parent[v] != full.Parent[v] {
			t.Fatalf("%s: settled node %d differs: delay %v/%v cost %v/%v dist %v/%v parent %d/%d", label, v,
				c.Delay(v), full.Delay[v], c.Cost(v), full.Cost[v], p.Dist[v], full.Dist[v], p.Parent[v], full.Parent[v])
		}
		// Parents agree, so paths do; on a big graph walk a sample of them
		// through the cursor anyway, for the walk itself.
		if int(v)%pathStride != 0 {
			continue
		}
		if got, want := c.To(v), full.To(v); !slices.Equal(got, want) {
			t.Fatalf("%s: path to settled node %d: %v, want %v", label, v, got, want)
		}
	}
	settled := p.settled
	prev := NodeID(-1)
	for i := 0; i < settled; i++ {
		v, ok := c.Next()
		if !ok || !c.final(v) {
			t.Fatalf("%s: Next #%d = (%d, %v), not a settled node", label, i, v, ok)
		}
		if prev >= 0 && !(full.Dist[prev] < full.Dist[v] || (full.Dist[prev] == full.Dist[v] && prev < v)) {
			t.Fatalf("%s: settle order not ascending: %d (dist %v) before %d (dist %v)", label, prev, full.Dist[prev], v, full.Dist[v])
		}
		prev = v
	}
	if p.settled != settled {
		t.Fatalf("%s: walking %d settled nodes advanced the search to %d", label, settled, p.settled)
	}
}

// bigGraphs are graphs of over 256 routers, on which a table keeps a
// repeat search only once it has labelled keepAt routers: the benchmark's
// 2440-node transit-stub, and two tie-heavy shapes where the settle
// order is nothing like id order — a unit-weight grid and a long
// uniform ring.
func bigGraphs(t testing.TB) map[string]*Graph {
	ts, _, err := TransitStub(TransitStubConfig{TransitDomains: 5, TransitSize: 8, StubsPerTransitNode: 3, StubSize: 20, EdgeProb: 0.4}, rng.New(3))
	if err != nil {
		t.Fatalf("transit-stub: %v", err)
	}
	const side = 36
	grid := New(side * side)
	for u := 0; u < grid.N(); u++ {
		if u%side != side-1 {
			grid.MustAddEdge(NodeID(u), NodeID(u+1), 1, 1)
		}
		if u+side < grid.N() {
			grid.MustAddEdge(NodeID(u), NodeID(u+side), 1, 1)
		}
	}
	ring := New(600)
	for u := 0; u < ring.N(); u++ {
		ring.MustAddEdge(NodeID(u), NodeID((u+1)%ring.N()), 1, 1)
	}
	return map[string]*Graph{"transitstub2440": ts, "grid": grid, "ring600": ring}
}

// settleOrder is the order a complete row's search settled its routers
// in: the reachable ones, ascending on the (dist, id) ladder.
func settleOrder(full *Paths) []NodeID {
	var order []NodeID
	for v := range full.Dist {
		if full.Reachable(NodeID(v)) {
			order = append(order, NodeID(v))
		}
	}
	slices.SortFunc(order, func(a, b NodeID) int {
		return cmp.Or(cmp.Compare(full.Dist[a], full.Dist[b]), cmp.Compare(a, b))
	})
	return order
}

// repeatModel predicts beside one table which scratch searches its
// Near keeps: the scratch's search is kept when a search from another
// source begins, if its own source had begun a search before it since
// the last Invalidate and it labelled more than keepAt routers, and
// restarted in place otherwise. near asserts that rule on every call,
// and that the sources it saw begin are those Materialized counts.
type repeatModel struct {
	t     *testing.T
	ap    *AllPairs
	began []bool // sources begun since the last Invalidate
	count int    // the true entries of began
	again bool   // the scratch's search is a repeat
}

func newRepeatModel(t *testing.T, ap *AllPairs) *repeatModel {
	return &repeatModel{t: t, ap: ap, began: make([]bool, len(ap.rows))}
}

// near is ap.Near(src); kept reports that it kept the scratch's search.
func (m *repeatModel) near(label string, src NodeID) (c Near, kept bool) {
	m.t.Helper()
	ap, old := m.ap, m.ap.scratch
	begins := ap.rows[src] == nil && (old == nil || old.Src != src)
	kept = begins && old != nil && old.Src >= 0 && m.again && old.settled+old.queued > ap.keepAt
	var from NodeID
	if old != nil {
		from = old.Src
	}
	c = ap.Near(src)
	switch {
	case kept && (ap.rows[from] != old || c.p == old):
		m.t.Fatalf("%s: source %d's Near did not keep source %d's repeat search, which labelled more than keepAt %d", label, src, from, ap.keepAt)
	case begins && !kept && old != nil && (c.p != old || from >= 0 && ap.rows[from] == old):
		m.t.Fatalf("%s: source %d's Near did not restart source %d's search in place (a repeat: %v, keepAt %d)", label, src, from, m.again, ap.keepAt)
	}
	if begins {
		m.again = m.began[src]
		if !m.again {
			m.began[src] = true
			m.count++
		}
	}
	if got := ap.Materialized(); got != m.count {
		m.t.Fatalf("%s: the table started %d sources, the model saw %d begin", label, got, m.count)
	}
	return c, kept
}

// invalidate is ap.Invalidate(down): every source searches afresh.
func (m *repeatModel) invalidate(down []bool) {
	m.ap.Invalidate(down)
	clear(m.began)
	m.count = 0
}

// TestEquivalenceLazyResumableRows is the differential gate for
// resumable rows: a lazy row advanced in random increments — Next a few
// times, Settle of a random node, finally Row — is at every stop a
// prefix of the one-shot row, and ends equal to it, under a second
// cursor that was opened first and must go on reporting the one-shot
// order. Between the stops the row changes hands: for some sources
// another source's cursor walks mid-way, which keeps the row if its
// search is a repeat that labelled more than keepAt routers and
// restarts it otherwise (see repeatModel, which checks every Near);
// some sources search once before, so that their search is a repeat;
// for some the table is invalidated, which restarts whichever row the
// next Near takes; and for some Row completes the half-walked scratch,
// which it must keep. After every restart the row is clean (see
// checkClean).
func TestEquivalenceLazyResumableRows(t *testing.T) {
	graphs := equivGraphs(t)
	maps.Copy(graphs, bigGraphs(t))
	var keptByNear, firstRestarted, keptByRow, reopened, afterInvalidate int
	for name, g := range graphs {
		step := 1 // every source of a small graph, a spread of them on a big one
		if g.N() > 256 {
			step = g.N() / 10
		}
		for avoidName, avoid := range equivAvoids(g, 23) {
			for _, w := range []Weight{ByDelay, ByCost} {
				lazy := NewLazyAllPairs(g, w)
				m := newRepeatModel(t, lazy)
				m.invalidate(avoid)
				rng := rng.New(int64(g.N())*31 + int64(w))
				for src := 0; src < g.N(); src += step {
					src := NodeID(src)
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					full := shortestAvoid(g, src, w, avoid)
					want := settleOrder(full)
					other := (src + max(1, NodeID(step)/2)) % NodeID(g.N())
					if src/NodeID(step)%4 == 2 {
						// Search once before, from src and then from
						// other, so that src's search below is a repeat.
						m.near(label+"/before", src)
						m.near(label+"/before", other)
					}
					c, _ := m.near(label, src)
					p := c.p
					checkClean(t, label+"/start", p)
					if first, ok := c.Next(); !ok || first != src {
						t.Fatalf("%s: first settled node = (%d, %v), want the source", label, first, ok)
					}
					// held is opened before the row changes hands and is
					// walked only after: k more routers of the one-shot order.
					held, _ := m.near(label, src)
					follow := func(at string, k int) {
						t.Helper()
						for ; k > 0 && held.i < len(want); k-- {
							if v, ok := held.Next(); !ok || v != want[held.i-1] {
								t.Fatalf("%s/%s: held cursor's Next #%d = (%d, %v), want %d", label, at, held.i, v, ok, want[held.i-1])
							}
						}
					}
					reopen := func() {
						c, _ = m.near(label+"/reopen", src)
						held, _ = m.near(label+"/reopen", src)
						p = c.p
					}

					// Walk past keepAt labels from every other source, so
					// that another source's Near keeps the row if it is a
					// repeat, and a few pops from the rest, so that it
					// restarts it.
					walk := 3
					if src/NodeID(step)%2 == 0 {
						walk = lazy.keepAt
					}
					for p.settled+p.queued <= walk {
						if _, ok := c.Next(); !ok {
							break
						}
					}
					follow("walked", 3)
					checkSuspended(t, label+"/walked", lazy, src, full)

					if src/NodeID(step)%3 == 2 {
						// Another source's cursor mid-walk keeps the row or
						// restarts it under both cursors: open them again.
						labelled, untouched := p.settled+p.queued, lazy.scratch != p || lazy.rows[other] != nil
						owant := settleOrder(shortestAvoid(g, other, w, avoid))
						o, kept := m.near(label, other)
						switch {
						case untouched:
						case kept:
							keptByNear++
						case labelled > lazy.keepAt:
							firstRestarted++
						}
						checkClean(t, fmt.Sprintf("%s/source%d", label, other), o.p)
						for o.i < min(40, len(owant)) {
							if v, ok := o.Next(); !ok || v != owant[o.i-1] {
								t.Fatalf("%s: source %d's Next #%d = (%d, %v), want %d", label, other, o.i, v, ok, owant[o.i-1])
							}
						}
						reopen()
						follow("reopened", 3)
						checkSuspended(t, label+"/reopened", lazy, src, full)
						reopened++
					}

					if src/NodeID(step)%5 == 3 {
						// Invalidate under the same mask: the next Near
						// restarts the scratch, or the row it retired last.
						reused := lazy.scratch
						m.invalidate(avoid)
						if k := len(lazy.free); reused == nil && k > 0 {
							reused = lazy.free[k-1]
						}
						reopen()
						if reused != nil {
							if p != reused {
								t.Fatalf("%s: Near after Invalidate took new arrays", label)
							}
							afterInvalidate++
						}
						checkClean(t, label+"/invalidated", p)
						follow("invalidated", 3)
						checkSuspended(t, label+"/invalidated", lazy, src, full)
					}

					if src/NodeID(step)%2 == 1 {
						// Row on a row in mid-search: the scratch it runs in
						// is kept, cursors and all.
						if lazy.scratch == p && p.queued > 0 {
							if lazy.Row(src) != p {
								t.Fatalf("%s: Row did not keep the scratch holding its source", label)
							}
							keptByRow++
						}
						samePaths(t, label+"/row-mid-search", lazy.Row(src), full)
						follow("row-mid-search", 5)
						checkSuspended(t, label+"/row-mid-search", lazy, src, full)
					}

					// Settle a router the search has never labelled, a
					// random way beyond everything it has.
					for i := min(p.settled+p.queued+rng.Intn(128), len(want)-1); i < len(want); i++ {
						if v := want[i]; p.pos[v] == posUnseen {
							if !c.Settle(v) {
								t.Fatalf("%s: Settle(%d) of a reachable, never labelled router = false", label, v)
							}
							follow("settle-unlabelled", 2)
							checkSuspended(t, fmt.Sprintf("%s/settle-unlabelled%d", label, v), lazy, src, full)
							break
						}
					}

					for stop := 0; stop < 4; stop++ {
						for k := rng.Intn(5); k > 0; k-- {
							c.Next()
						}
						checkSuspended(t, fmt.Sprintf("%s/stop%d/next", label, stop), lazy, src, full)
						v := NodeID(rng.Intn(g.N()))
						if got := c.Settle(v); got != full.Reachable(v) {
							t.Fatalf("%s: Settle(%d) = %v, reachable %v", label, v, got, full.Reachable(v))
						}
						follow(fmt.Sprintf("stop%d", stop), 1+rng.Intn(3))
						checkSuspended(t, fmt.Sprintf("%s/stop%d/settle%d", label, stop, v), lazy, src, full)
					}
					if c.Settle(-1) || c.Settle(NodeID(g.N())) {
						t.Fatalf("%s: Settle accepted an id outside the graph", label)
					}
					samePaths(t, label+"/row", lazy.Row(src), full)
					follow("row", len(want))
					if v, ok := held.Next(); ok {
						t.Fatalf("%s: held cursor reported %d after all %d reachable routers", label, v, len(want))
					}

					// A second cursor on the finished row, and one on a row
					// Row completed before any cursor opened it, report
					// every reachable node once.
					for kind, row := range map[string]*AllPairs{"lazy": lazy, "completed-first": completedRow(g, w, avoid, src)} {
						c := row.Near(src)
						seen := 0
						for _, ok := c.Next(); ok; _, ok = c.Next() {
							seen++
						}
						if seen != len(want) {
							t.Fatalf("%s: %s cursor reported %d nodes, %d reachable", label, kind, seen, len(want))
						}
						if _, ok := c.Next(); ok {
							t.Fatalf("%s: %s cursor reported a node after exhaustion", label, kind)
						}
					}
					checkSuspended(t, label+"/done", lazy, src, full)
				}
			}
		}
	}
	// The stops above are only worth their names if the rows really
	// changed hands with the cursors open.
	if keptByNear == 0 || firstRestarted == 0 || keptByRow == 0 || reopened == 0 || afterInvalidate == 0 {
		t.Fatalf("rows changing hands under an open cursor: %d repeats kept by another source's Near, %d first searches past keepAt restarted by it, %d kept by Row, %d reopens after another source, %d restarts after Invalidate — want all five",
			keptByNear, firstRestarted, keptByRow, reopened, afterInvalidate)
	}
}

// FuzzResumableRow drives one lazy row with an arbitrary program of
// cursor operations — two cursors' Next, Settle, Row, a walk of
// another source's cursor (then, for op 5, Row of that source on its
// half-walked row) and Invalidate, after both of which the first
// source's cursors are opened again — on a graph drawn from the seed
// (below and above 256 routers, where keepAt turns from 0, with and
// without tie-heavy weights). It checks every answer against the
// one-shot rows and every row it opens for a clean restart.
func FuzzResumableRow(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 200, 2, 0, 3})
	f.Add(int64(2), []byte{1, 255, 17, 0, 0, 2, 2, 1, 3, 9})
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 2})
	f.Add(int64(3), []byte{0, 0, 0, 0, 0, 1, 4, 128, 40, 0, 0, 0, 1, 5, 30, 60, 0, 0, 3, 1})
	f.Add(int64(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 77, 255, 1, 1, 4, 200, 3, 3, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rng.New(seed)
		n := 2 + rng.Intn(768)
		ties := rng.Intn(2) == 0
		g := New(n)
		for u := 1; u < n; u++ {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				if v := NodeID(rng.Intn(u)); !g.HasEdge(NodeID(u), v) && rng.Intn(16) > 0 {
					d, c := 0.1+rng.Float64()*10, 0.1+rng.Float64()*10
					if ties {
						d, c = float64(1+rng.Intn(3)), float64(1+rng.Intn(3))
					}
					g.MustAddEdge(NodeID(u), v, d, c)
				}
			}
		}
		w, src := Weight(rng.Intn(2)), NodeID(rng.Intn(n))
		full := shortestAvoid(g, src, w, nil)
		want := settleOrder(full)
		lazy := NewLazyAllPairs(g, w)
		cursors := []Near{lazy.Near(src), lazy.Near(src)}
		for i := 0; i < len(ops); i++ {
			switch op := ops[i] % 7; op {
			case 0, 1:
				c := &cursors[op]
				more := c.i < len(want)
				if v, ok := c.Next(); ok != more || (ok && v != want[c.i-1]) {
					t.Fatalf("op %d: Next after %d of %d reachable routers = (%d, %v)", i, c.i, len(want), v, ok)
				}
			case 2:
				v := NodeID(-1)
				if i++; i < len(ops) {
					v = NodeID(int(ops[i]) * (n + 1) / 255)
				}
				c := &cursors[0]
				if got := c.Settle(v); got != full.Reachable(v) {
					t.Fatalf("op %d: Settle(%d) = %v, reachable %v", i, v, got, full.Reachable(v))
				} else if got && (c.Delay(v) != full.Delay[v] || c.Cost(v) != full.Cost[v] || !slices.Equal(c.To(v), full.To(v))) {
					t.Fatalf("op %d: settled %d reads delay %v cost %v path %v, want %v %v %v", i, v, c.Delay(v), c.Cost(v), c.To(v), full.Delay[v], full.Cost[v], full.To(v))
				}
			case 3:
				samePaths(t, fmt.Sprintf("op %d: Row", i), lazy.Row(src), full)
			case 4, 5:
				other, k := src, 0
				if i+2 < len(ops) {
					other, k = NodeID(int(ops[i+1])*n/256), int(ops[i+2])
					i += 2
				}
				ofull := shortestAvoid(g, other, w, nil)
				owant := settleOrder(ofull)
				o := lazy.Near(other)
				checkClean(t, fmt.Sprintf("op %d: source %d", i, other), o.p)
				for ; k > 0 && o.i < len(owant); k-- {
					if v, ok := o.Next(); !ok || v != owant[o.i-1] {
						t.Fatalf("op %d: source %d's Next #%d = (%d, %v), want %d", i, other, o.i, v, ok, owant[o.i-1])
					}
				}
				if op == 5 {
					samePaths(t, fmt.Sprintf("op %d: Row of source %d", i, other), lazy.Row(other), ofull)
					more := o.i < len(owant)
					if v, ok := o.Next(); ok != more || (ok && v != owant[o.i-1]) {
						t.Fatalf("op %d: source %d's Next after Row = (%d, %v) at %d of %d", i, other, v, ok, o.i, len(owant))
					}
				}
				cursors = []Near{lazy.Near(src), lazy.Near(src)}
			case 6:
				lazy.Invalidate(nil)
				cursors = []Near{lazy.Near(src), lazy.Near(src)}
			}
			checkClean(t, fmt.Sprintf("op %d", i), cursors[0].p)
		}
		checkSuspended(t, "after the last op", lazy, src, full)
		samePaths(t, "final Row", lazy.Row(src), full)
	})
}

// completedRow is a fresh table under avoid whose row from src Row has
// completed, before any cursor touched it.
func completedRow(g *Graph, w Weight, avoid []bool, src NodeID) *AllPairs {
	ap := NewLazyAllPairs(g, w)
	ap.Invalidate(avoid)
	ap.Row(src)
	return ap
}

// TestInvalidateRestartsTheScratch: a search suspended in the scratch
// is dead after Invalidate — the next Near from its source searches
// again, under the new mask — and it searches on the scratch's own
// arrays, restarted clean, so a table invalidated over and over reuses
// them.
func TestInvalidateRestartsTheScratch(t *testing.T) {
	for name, g := range bigGraphs(t) {
		src := NodeID(g.N() / 3)
		avoids := equivAvoids(g, 5)
		ap := NewLazyAllPairs(g, ByDelay)
		for _, avoidName := range []string{"none", "isolated", "links-down", "none"} {
			avoid := avoids[avoidName]
			if avoidName == "isolated" {
				avoid = arcMask(g, func(u, v NodeID) bool { return u == src || v == src })
			}
			scratch := ap.scratch
			ap.Invalidate(avoid)
			if got := ap.Materialized(); got != 0 {
				t.Fatalf("%s/%s: %d sources started right after Invalidate", name, avoidName, got)
			}
			c := ap.Near(src)
			if scratch != nil && c.p != scratch {
				t.Fatalf("%s/%s: the search after Invalidate left the scratch", name, avoidName)
			}
			checkClean(t, name+"/"+avoidName, c.p)
			for k := 0; k < 128; k++ {
				c.Next()
			}
			checkSuspended(t, name+"/"+avoidName, ap, src, shortestAvoid(g, src, ByDelay, avoid))
		}
	}
}

// TestNearWorkFollowsCost is the work oracle for a cursor: its search
// settles no further than it is read. A Near walk stopped at cost c —
// at the first router it reports whose distance is not below c — has
// settled between |{v : d(s,v) < c}| and |{v : d(s,v) ≤ c}| + 1
// routers, and Settle(v) between |{u : d(s,u) < d(s,v)}| + 1 and
// |{u : d(s,u) ≤ d(s,v)}|, both counted on the one-shot row. It runs on
// a Waxman graph, the transit-stub and a tie-heavy ring, each search
// in a scratch restarted by Invalidate.
func TestNearWorkFollowsCost(t *testing.T) {
	wg, err := Waxman(DefaultWaxman(400), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	big := bigGraphs(t)
	for name, g := range map[string]*Graph{"waxman400": wg.Graph, "transitstub2440": big["transitstub2440"], "ring600": big["ring600"]} {
		for _, w := range []Weight{ByDelay, ByCost} {
			ap := NewLazyAllPairs(g, w)
			for src := NodeID(0); int(src) < g.N(); src += NodeID(g.N() / 8) {
				full := shortestAvoid(g, src, w, nil)
				order := settleOrder(full)
				// below(c) and atMost(c) count the routers closer than c
				// and no farther than c.
				below := func(c float64) int {
					return sort.Search(len(order), func(i int) bool { return full.Dist[order[i]] >= c })
				}
				atMost := func(c float64) int {
					return sort.Search(len(order), func(i int) bool { return full.Dist[order[i]] > c })
				}
				for i := 0; i < len(order); i += 1 + len(order)/16 {
					d := full.Dist[order[i]]
					label := fmt.Sprintf("%s/%s/src%d", name, w, src)
					for _, c := range []float64{d, d + 0.5, math.Inf(1)} {
						ap.Invalidate(nil)
						cur := ap.Near(src)
						for v, ok := cur.Next(); ok && full.Dist[v] < c; v, ok = cur.Next() {
						}
						if got, lo, hi := cur.p.settled, below(c), atMost(c)+1; got < lo || got > hi {
							t.Fatalf("%s: walk stopped at cost %v settled %d routers, want %d to %d", label, c, got, lo, hi)
						}
					}
					ap.Invalidate(nil)
					cur := ap.Near(src)
					cur.Settle(order[i])
					if got, lo, hi := cur.p.settled, below(d)+1, atMost(d); got < lo || got > hi {
						t.Fatalf("%s: Settle(%d) at cost %v settled %d routers, want %d to %d", label, order[i], d, got, lo, hi)
					}
				}
			}
		}
	}
}
