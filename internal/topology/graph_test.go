package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"scmp/internal/rng"
)

func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1, 2)
	}
	return g
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 3, 7)
	for _, pair := range [][2]NodeID{{0, 1}, {1, 0}} {
		l, ok := g.Edge(pair[0], pair[1])
		if !ok {
			t.Fatalf("edge %v missing", pair)
		}
		if l.Delay != 3 || l.Cost != 7 {
			t.Fatalf("edge %v = %+v, want delay 3 cost 7", pair, l)
		}
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := New(3)
	cases := []struct {
		name        string
		u, v        NodeID
		delay, cost float64
	}{
		{"self-loop", 1, 1, 1, 1},
		{"out of range", 0, 5, 1, 1},
		{"negative node", -1, 0, 1, 1},
		{"zero delay", 0, 1, 0, 1},
		{"zero cost", 0, 1, 1, 0},
		{"negative delay", 0, 1, -2, 1},
		{"NaN delay", 0, 1, math.NaN(), 1},
		{"NaN cost", 0, 1, 1, math.NaN()},
		{"infinite delay", 0, 1, math.Inf(1), 1},
		{"infinite cost", 0, 1, 1, math.Inf(1)},
		{"subnormal delay", 0, 1, 1e-320, 1},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.delay, c.cost); err == nil {
			t.Errorf("%s: AddEdge accepted", c.name)
		}
	}
	g.MustAddEdge(0, 1, 1, 1)
	if err := g.AddEdge(1, 0, 2, 2); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestTryScaleDelays(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2, 5)
	g.MustAddEdge(1, 2, 1e300, 5)
	g.MustAddEdge(2, 3, 1e300, 5) // by 1e8 each is finite, the path 1-2-3 not
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1), 1e308, 1e-320, 1e8} {
		if _, err := g.TryScaleDelays(f); err == nil {
			t.Errorf("factor %g accepted", f)
		}
	}
	c, err := g.TryScaleDelays(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := c.Edge(0, 1); l.Delay != 1 || l.Cost != 5 {
		t.Fatalf("scaled edge = %+v, want delay 1 cost 5", l)
	}
	if l, _ := g.Edge(0, 1); l.Delay != 2 {
		t.Fatalf("the original changed: %+v", l)
	}
}

// TestComponentsOrderTiesByLowestID: components of equal size come in
// order of their lowest id, so Waxman's connect, which joins comps[0]
// and comps[1], adds the same edge on every Go release. The graph is
// pairs {0,1}, {3,4}, ... with a singleton between each.
func TestComponentsOrderTiesByLowestID(t *testing.T) {
	for n := 2; n <= 200; n++ {
		g := New(n)
		for u := 0; u+1 < n; u += 3 {
			g.MustAddEdge(NodeID(u), NodeID(u+1), 1, 1)
		}
		comps := g.Components()
		for i := 1; i < len(comps); i++ {
			a, b := comps[i-1], comps[i]
			if len(a) < len(b) || len(a) == len(b) && a[0] > b[0] {
				t.Fatalf("n=%d: component %v comes before %v", n, a, b)
			}
		}
	}
}

func TestConnected(t *testing.T) {
	g := line(t, 4)
	if !g.Connected() {
		t.Fatal("line graph should be connected")
	}
	g2 := New(4)
	g2.MustAddEdge(0, 1, 1, 1)
	g2.MustAddEdge(2, 3, 1, 1)
	if g2.Connected() {
		t.Fatal("two components reported connected")
	}
	comps := g2.Components()
	if len(comps) != 2 || len(comps[0]) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	if New(0).Connected() == false {
		t.Fatal("empty graph should count as connected")
	}
	if New(1).Connected() == false {
		t.Fatal("singleton graph should count as connected")
	}
}

func TestDegreeAndAvgDegree(t *testing.T) {
	g := line(t, 3)
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees = %d,%d", g.Degree(0), g.Degree(1))
	}
	want := 2 * 2.0 / 3.0
	if g.AvgDegree() != want {
		t.Fatalf("AvgDegree = %g, want %g", g.AvgDegree(), want)
	}
}

func TestDiameterLine(t *testing.T) {
	g := line(t, 5) // delay 1 per hop -> diameter 4
	d, path := g.Diameter()
	if d != 4 {
		t.Fatalf("diameter = %g, want 4", d)
	}
	if !slices.Equal(path, []NodeID{0, 1, 2, 3, 4}) {
		t.Fatalf("diameter path = %v, want the whole line from 0", path)
	}
	if d, path := New(3).Diameter(); d != 0 || path != nil {
		t.Fatalf("edgeless graph: diameter %g over %v, want 0 over nil", d, path)
	}
}

func TestClone(t *testing.T) {
	g := line(t, 3)
	c := g.Clone()
	c.MustAddEdge(0, 2, 1, 1)
	if g.HasEdge(0, 2) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone M = %d, orig M = %d", c.M(), g.M())
	}
}

func TestComponentOrderIsBFS(t *testing.T) {
	g := line(t, 4)
	comp := g.Component(0)
	for i, v := range comp {
		if v != NodeID(i) {
			t.Fatalf("BFS order = %v", comp)
		}
	}
}

// Property: on random graphs, M equals the handshake count and every edge
// is seen identically from both sides.
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rng.New(seed)
		g, err := Random(DefaultRandom(20, 4), rng)
		if err != nil {
			return false
		}
		half := 0
		for u := 0; u < g.N(); u++ {
			for _, l := range g.Neighbors(NodeID(u)) {
				back, ok := g.Edge(l.To, NodeID(u))
				if !ok || back.Delay != l.Delay || back.Cost != l.Cost {
					return false
				}
				half++
			}
		}
		return half == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
