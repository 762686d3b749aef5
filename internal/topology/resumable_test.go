package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
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
	for v := range full.Dist {
		v := NodeID(v)
		if p.pos[v] != posSettled {
			if !math.IsInf(c.Delay(v), 1) || !math.IsInf(c.Cost(v), 1) || c.To(v) != nil {
				t.Fatalf("%s: unsettled node %d reported: delay %v cost %v path %v", label, v, c.Delay(v), c.Cost(v), c.To(v))
			}
			continue
		}
		if c.Delay(v) != full.Delay[v] || c.Cost(v) != full.Cost[v] || p.Dist[v] != full.Dist[v] || p.Parent[v] != full.Parent[v] {
			t.Fatalf("%s: settled node %d differs: delay %v/%v cost %v/%v dist %v/%v parent %d/%d", label, v,
				c.Delay(v), full.Delay[v], c.Cost(v), full.Cost[v], p.Dist[v], full.Dist[v], p.Parent[v], full.Parent[v])
		}
		if got, want := c.To(v), full.To(v); !slices.Equal(got, want) {
			t.Fatalf("%s: path to settled node %d: %v, want %v", label, v, got, want)
		}
	}
	settled := p.settled
	prev := NodeID(-1)
	for i := 0; i < settled; i++ {
		v, ok := c.Next()
		if !ok || p.pos[v] != posSettled {
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

// TestEquivalenceLazyResumableRows is the differential gate for
// resumable rows: a lazy row advanced in random increments — Next a few
// times, Settle of a random node, finally Row — is at every stop a
// prefix of the one-shot row, and ends equal to it.
func TestEquivalenceLazyResumableRows(t *testing.T) {
	for name, g := range equivGraphs(t) {
		for avoidName, avoid := range equivAvoids(g, 23) {
			for _, w := range []Weight{ByDelay, ByCost} {
				lazy := NewLazyAllPairsAvoid(g, w, avoid)
				e := NewEngine(g)
				rng := rand.New(rand.NewSource(int64(g.N())*31 + int64(w)))
				for src := 0; src < g.N(); src++ {
					src := NodeID(src)
					label := fmt.Sprintf("%s/%s/%s/src%d", name, avoidName, w, src)
					full := e.ShortestAvoid(src, w, avoid)
					reach := 0
					for v := range full.Dist {
						if full.Reachable(NodeID(v)) {
							reach++
						}
					}
					c := lazy.Near(src)
					if first, ok := c.Next(); !ok || first != src {
						t.Fatalf("%s: first settled node = (%d, %v), want the source", label, first, ok)
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
						checkSuspended(t, fmt.Sprintf("%s/stop%d/settle%d", label, stop, v), lazy, src, full)
					}
					if c.Settle(-1) || c.Settle(NodeID(g.N())) {
						t.Fatalf("%s: Settle accepted an id outside the graph", label)
					}
					samePaths(t, label+"/row", lazy.Row(src), full)

					// A second cursor on the finished row, and one on an
					// eagerly built row, report every reachable node once.
					for kind, row := range map[string]*AllPairs{"lazy": lazy, "eager": eagerRow(g, w, avoid, src, full)} {
						c := row.Near(src)
						seen := 0
						for _, ok := c.Next(); ok; _, ok = c.Next() {
							seen++
						}
						if seen != reach {
							t.Fatalf("%s: %s cursor reported %d nodes, %d reachable", label, kind, seen, reach)
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
}

// eagerRow wraps a complete one-shot row the way NewAllPairsAvoid
// stores it, without paying for the other n-1 rows.
func eagerRow(g *Graph, w Weight, avoid []bool, src NodeID, full *Paths) *AllPairs {
	ap := NewLazyAllPairsAvoid(g, w, avoid)
	ap.rows[src] = full
	return ap
}
