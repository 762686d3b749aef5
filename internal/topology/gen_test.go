package topology

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"scmp/internal/rng"
)

func TestWaxmanPaperConfig(t *testing.T) {
	rng := rng.New(3)
	wg, err := Waxman(DefaultWaxman(100), rng)
	if err != nil {
		t.Fatal(err)
	}
	if wg.N() != 100 {
		t.Fatalf("N = %d", wg.N())
	}
	if !wg.Connected() {
		t.Fatal("DefaultWaxman graph must be connected")
	}
	if len(wg.Pos) != 100 {
		t.Fatalf("positions = %d", len(wg.Pos))
	}
	for _, p := range wg.Pos {
		if p.X < 0 || p.X > 32767 || p.Y < 0 || p.Y > 32767 {
			t.Fatalf("position %v off grid", p)
		}
	}
}

func TestWaxmanLinkAttributes(t *testing.T) {
	rng := rng.New(5)
	wg, err := Waxman(DefaultWaxman(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < wg.N(); u++ {
		for _, l := range wg.Neighbors(NodeID(u)) {
			d := Manhattan(wg.Pos[u], wg.Pos[l.To])
			wantCost := math.Max(d, 1)
			if l.Cost != wantCost {
				t.Fatalf("edge %d-%d cost %g, want Manhattan %g", u, l.To, l.Cost, wantCost)
			}
			if l.Delay <= 0 || l.Delay > l.Cost {
				t.Fatalf("edge %d-%d delay %g outside (0, cost=%g]", u, l.To, l.Delay, l.Cost)
			}
		}
	}
}

func TestWaxmanBadConfig(t *testing.T) {
	rng := rng.New(1)
	if _, err := Waxman(WaxmanConfig{N: 0, Alpha: 1, Beta: 1}, rng); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Waxman(WaxmanConfig{N: 5, Alpha: 0, Beta: 1}, rng); err == nil {
		t.Error("Alpha=0 accepted")
	}
	if _, err := Waxman(WaxmanConfig{N: 5, Alpha: 1, Beta: -1}, rng); err == nil {
		t.Error("Beta<0 accepted")
	}
}

func TestWaxmanAlphaBetaEffect(t *testing.T) {
	// Larger beta must raise average degree substantially (paper: "increasing
	// beta increases the degree of each node"). Compare beta 0.1 vs 0.6 over
	// several seeds; disable Connect so stitching doesn't blur the signal.
	mean := func(beta float64) float64 {
		total := 0.0
		for seed := int64(0); seed < 5; seed++ {
			rng := rng.New(seed)
			cfg := WaxmanConfig{N: 80, Alpha: 0.25, Beta: beta, Connect: false}
			wg, err := Waxman(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += wg.AvgDegree()
		}
		return total / 5
	}
	lo, hi := mean(0.1), mean(0.6)
	if hi <= lo*2 {
		t.Fatalf("beta effect too weak: deg(0.1)=%g deg(0.6)=%g", lo, hi)
	}
}

func TestRandomDegreeTarget(t *testing.T) {
	for _, deg := range []float64{3, 5} {
		rng := rng.New(11)
		g, err := Random(DefaultRandom(50, deg), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("deg %g graph disconnected", deg)
		}
		if math.Abs(g.AvgDegree()-deg) > 0.2 {
			t.Fatalf("AvgDegree = %g, want ~%g", g.AvgDegree(), deg)
		}
	}
}

func TestRandomBadConfig(t *testing.T) {
	rng := rng.New(1)
	if _, err := Random(RandomConfig{N: 0, AvgDegree: 3}, rng); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Random(RandomConfig{N: 10, AvgDegree: 1}, rng); err == nil {
		t.Error("AvgDegree=1 accepted")
	}
	if _, err := Random(RandomConfig{N: 10, AvgDegree: 50}, rng); err == nil {
		t.Error("impossible AvgDegree accepted")
	}
}

// Property: Random() always yields a connected graph with positive link
// attributes and delay <= cost.
func TestPropertyRandomInvariants(t *testing.T) {
	f := func(seed int64, rawN, rawDeg uint8) bool {
		n := 3 + int(rawN)%40
		deg := 2 + float64(rawDeg%3)
		if deg > float64(n-1) {
			deg = float64(n - 1)
		}
		rng := rng.New(seed)
		g, err := Random(DefaultRandom(n, deg), rng)
		if err != nil {
			return false
		}
		if !g.Connected() {
			return false
		}
		for u := 0; u < g.N(); u++ {
			for _, l := range g.Neighbors(NodeID(u)) {
				if l.Delay <= 0 || l.Cost <= 0 || l.Delay > l.Cost {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestArpanetFixed(t *testing.T) {
	a, b := Arpanet(), Arpanet()
	if a.N() != ArpanetN || a.M() != len(arpanetEdges) {
		t.Fatalf("N=%d M=%d", a.N(), a.M())
	}
	if !a.Connected() {
		t.Fatal("ARPANET must be connected")
	}
	// Two calls must produce identical instances.
	for u := 0; u < a.N(); u++ {
		la, lb := a.Neighbors(NodeID(u)), b.Neighbors(NodeID(u))
		if len(la) != len(lb) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("node %d link %d differs: %+v vs %+v", u, i, la[i], lb[i])
			}
		}
	}
	if d := a.AvgDegree(); d < 2.8 || d > 3.4 {
		t.Fatalf("ARPANET avg degree = %g, want ~3.1", d)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 3, 6)
	g.MustAddEdge(1, 2, 4, 5)
	var buf bytes.Buffer
	hl := map[[2]NodeID]bool{{1, 0}: true}
	if err := WriteDOT(&buf, g, "", hl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"topology\"", "0 -- 1", "1 -- 2", "(3,6)", "style=bold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "style=bold") != 1 {
		t.Fatalf("want exactly one bold edge:\n%s", out)
	}
}
