package topology

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"scmp/internal/rng"
)

// checkSuspended holds a row, wherever its search stands, against the
// complete one-shot row: every settled node agrees bit for bit (labels,
// parent, path), every other node reads as unreachable through the
// cursor, and the settle order is strictly ascending on the (dist, id)
// ladder.
func checkSuspended(t *testing.T, label string, ap *AllPairs, src NodeID, full *Paths) {
	t.Helper()
	c := ap.Near(src)
	p := c.p
	pathStride := 1 + len(full.Dist)/128
	for v := range full.Dist {
		v := NodeID(v)
		s := c.at(v)
		if s < 0 {
			if !math.IsInf(c.Delay(v), 1) || !math.IsInf(c.Cost(v), 1) || c.To(v) != nil {
				t.Fatalf("%s: unsettled node %d reported: delay %v cost %v path %v", label, v, c.Delay(v), c.Cost(v), c.To(v))
			}
			continue
		}
		if c.Delay(v) != full.Delay[v] || c.Cost(v) != full.Cost[v] || p.Dist[s] != full.Dist[v] || p.Parent[s] != full.Parent[v] {
			t.Fatalf("%s: settled node %d differs: delay %v/%v cost %v/%v dist %v/%v parent %d/%d", label, v,
				c.Delay(v), full.Delay[v], c.Cost(v), full.Cost[v], p.Dist[s], full.Dist[v], p.Parent[s], full.Parent[v])
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
		if !ok || c.at(v) < 0 {
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

// sparseGraphs are graphs of at least sparseSlots*sparseDiv routers, on
// which a cursor's row starts in the sparse layout: the benchmark's
// 2440-node transit-stub (four growth steps before promotion), and two
// tie-heavy shapes where the order slots are handed out in is nothing
// like id order — a unit-weight grid and a long uniform ring.
func sparseGraphs(t testing.TB) map[string]*Graph {
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

// TestEquivalenceLazyResumableRows is the differential gate for
// resumable rows: a lazy row advanced in random increments — Next a few
// times, Settle of a random node, finally Row — is at every stop a
// prefix of the one-shot row, and ends equal to it. On graphs big
// enough for a row to start sparse it also drives the row through its
// layout changes — a growth step, promotion by the search and promotion
// by Row — under a second cursor that was opened first and must go on
// reporting the one-shot order as if the arrays had never moved.
func TestEquivalenceLazyResumableRows(t *testing.T) {
	graphs := equivGraphs(t)
	maps.Copy(graphs, sparseGraphs(t))
	var grown, promotedBySearch, promotedByRow int
	for name, g := range graphs {
		startsSparse := g.N() >= sparseSlots*sparseDiv
		step := 1 // every source of a small graph, a spread of them on a big one
		if startsSparse {
			step = g.N() / 10
		}
		for avoidName, avoid := range equivAvoids(g, 23) {
			for _, w := range []Weight{ByDelay, ByCost} {
				lazy := NewLazyAllPairs(g, w)
				lazy.Invalidate(avoid)
				rng := rng.New(int64(g.N())*31 + int64(w))
				for src := 0; src < g.N(); src += step {
					src := NodeID(src)
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					full := shortestAvoid(g, src, w, avoid)
					want := settleOrder(full)
					c := lazy.Near(src)
					p := c.p
					if sparse := p.ids != nil; sparse != startsSparse {
						t.Fatalf("%s: row of a %d-router graph starts sparse = %v", label, g.N(), sparse)
					}
					if first, ok := c.Next(); !ok || first != src {
						t.Fatalf("%s: first settled node = (%d, %v), want the source", label, first, ok)
					}
					// held is opened before the row changes layout and is
					// walked only after: k more routers of the one-shot order.
					held := lazy.Near(src)
					follow := func(at string, k int) {
						t.Helper()
						for ; k > 0 && held.i < len(want); k-- {
							if v, ok := held.Next(); !ok || v != want[held.i-1] {
								t.Fatalf("%s/%s: held cursor's Next #%d = (%d, %v), want %d", label, at, held.i, v, ok, want[held.i-1])
							}
						}
					}
					unlabelled := func(v NodeID) bool {
						if p.ids != nil {
							_, s := p.probe(v)
							return s < 0
						}
						return p.pos[v] == posUnseen
					}

					// Across a growth step: drive the search one pop at a
					// time until the sparse row has moved to wider arrays.
					for slots := len(p.ids); p.ids != nil && len(p.ids) == slots; {
						if _, ok := c.Next(); !ok {
							break
						}
					}
					if p.ids != nil && len(p.ids) > sparseSlots {
						grown++
					}
					follow("grown", 3)
					checkSuspended(t, label+"/grown", lazy, src, full)

					if src/NodeID(step)%2 == 1 {
						// Row on a row in mid-search, sparse if it still is.
						if p.ids != nil && p.queued > 0 {
							promotedByRow++
						}
						samePaths(t, label+"/row-mid-search", lazy.Row(src), full)
						follow("row-mid-search", 5)
						checkSuspended(t, label+"/row-mid-search", lazy, src, full)
					}

					// Settle a router the search has never labelled, a
					// random way beyond everything it has.
					wasSparse := p.ids != nil
					for i := min(p.settled+p.queued+rng.Intn(4*sparseSlots), len(want)-1); i < len(want); i++ {
						if v := want[i]; unlabelled(v) {
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
					if wasSparse && p.ids == nil && p.queued > 0 {
						promotedBySearch++
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
	// The stops above are only worth their names if the rows really went
	// through the layout changes with the cursors open.
	if grown == 0 || promotedBySearch == 0 || promotedByRow == 0 {
		t.Fatalf("layout changes under an open cursor: %d growth steps, %d promotions by the search, %d by Row — want all three", grown, promotedBySearch, promotedByRow)
	}
}

// FuzzResumableRow drives one lazy row with an arbitrary program of
// cursor operations — two cursors' Next, Settle, Row — on a graph drawn
// from the seed (below and above the size where rows start sparse, with
// and without tie-heavy weights) and checks every answer against the
// one-shot row.
func FuzzResumableRow(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 200, 2, 0, 3})
	f.Add(int64(2), []byte{1, 255, 17, 0, 0, 2, 2, 1, 3, 9})
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rng.New(seed)
		n := 2 + rng.Intn(3*sparseSlots*sparseDiv)
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
			switch op := ops[i] % 4; op {
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
			}
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
