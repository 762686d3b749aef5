package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

func TestBuildTopologyNames(t *testing.T) {
	for _, name := range Fig89Topologies() {
		g := BuildTopology(name, 1)
		if g.N() == 0 || !g.Connected() {
			t.Fatalf("%s: degenerate topology", name)
		}
	}
	a1 := BuildTopology(TopoArpanet, 1)
	a2 := BuildTopology(TopoArpanet, 99)
	if a1.M() != a2.M() {
		t.Fatal("ARPANET must not depend on the seed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown topology accepted")
		}
	}()
	BuildTopology("nope", 0)
}

func TestPickMembersExcludes(t *testing.T) {
	rng := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		ms := pickMembers(rng, 10, 9, 3)
		if len(ms) != 9 {
			t.Fatalf("got %d members", len(ms))
		}
		seen := map[topology.NodeID]bool{}
		for _, m := range ms {
			if m == 3 {
				t.Fatal("excluded node picked")
			}
			if seen[m] {
				t.Fatal("duplicate member")
			}
			seen[m] = true
		}
	}
}

func TestCenterPrefersHub(t *testing.T) {
	// Star: center 0 clearly minimises average delay.
	g := topology.New(5)
	for i := 1; i < 5; i++ {
		g.MustAddEdge(0, topology.NodeID(i), 1, 1)
	}
	if c := Center(g); c != 0 {
		t.Fatalf("Center = %d, want 0", c)
	}
}

// smallFig7 keeps the sweep fast for tests.
func smallFig7() Fig7Config {
	return Fig7Config{Nodes: 50, Alpha: 0.25, Beta: 0.2, GroupSizes: []int{10, 25}, Seeds: 4}
}

func TestFig7ShapesMatchPaper(t *testing.T) {
	tab := RunFig7(smallFig7())
	// sample is one cell's means.
	type sample struct{ delay, cost float64 }
	get := func(level, algo string, size int) sample {
		p := sample{tab.Value("tree_delay_mean", level, size, algo), tab.Value("tree_cost_mean", level, size, algo)}
		if math.IsNaN(p.delay) || math.IsNaN(p.cost) {
			t.Fatalf("missing cell %s/%s/%d", level, algo, size)
		}
		return p
	}
	for _, size := range []int{10, 25} {
		// SPT's delay is a lower bound for every tree, at every level.
		for _, lvl := range ConstraintLevels {
			spt := get(lvl.Name, "SPT", size)
			dcdm := get(lvl.Name, "DCDM", size)
			kmb := get(lvl.Name, "KMB", size)
			if spt.delay > dcdm.delay+1e-9 {
				t.Fatalf("%s size %d: SPT delay above DCDM", lvl.Name, size)
			}
			if spt.delay > kmb.delay {
				t.Fatalf("%s size %d: SPT delay above KMB", lvl.Name, size)
			}
			// Cost ordering: KMB cheapest, SPT most expensive.
			if kmb.cost > spt.cost {
				t.Fatalf("%s size %d: KMB cost above SPT", lvl.Name, size)
			}
			if dcdm.cost > spt.cost*1.02 {
				t.Fatalf("%s size %d: DCDM cost above SPT (%.0f vs %.0f)",
					lvl.Name, size, dcdm.cost, spt.cost)
			}
		}
		// Relaxing the constraint must not raise DCDM's cost.
		tight := get("tightest", "DCDM", size)
		loose := get("loosest", "DCDM", size)
		if loose.cost > tight.cost*1.02 {
			t.Fatalf("size %d: loosest DCDM cost %.0f above tightest %.0f",
				size, loose.cost, tight.cost)
		}
		// At the tightest level DCDM tracks SPT delay closely (paper:
		// identical); restructuring allows small slack.
		if tight.delay > get("tightest", "SPT", size).delay*1.15 {
			t.Fatalf("size %d: tightest DCDM delay far above SPT", size)
		}
	}
	// Cost grows with group size for every algorithm.
	for _, algo := range []string{"DCDM", "KMB", "SPT"} {
		if get("moderate", algo, 10).cost >= get("moderate", algo, 25).cost {
			t.Fatalf("%s: cost not increasing with group size", algo)
		}
	}
}

func TestWriteFig7(t *testing.T) {
	var buf bytes.Buffer
	WriteFig7(&buf, RunFig7(Fig7Config{Nodes: 30, Alpha: 0.25, Beta: 0.2, GroupSizes: []int{5}, Seeds: 2}))
	out := buf.String()
	for _, want := range []string{"Tree delay", "Tree cost", "tightest", "moderate", "loosest", "DCDM", "KMB", "SPT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// smallFig89 keeps the protocol sweep fast for tests.
func smallFig89() Fig89Config {
	return Fig89Config{
		GroupSizes:    []int{8, 16},
		Seeds:         3,
		SimTime:       10,
		DataRate:      1,
		PruneLifetime: 5,
		Topologies:    []string{TopoArpanet, TopoRand3},
	}
}

func TestFig89ShapesMatchPaper(t *testing.T) {
	tab := RunFig89(smallFig89())
	type cell struct {
		Protocol                  string
		data, proto, e2e, missing float64
	}
	get := func(topo, proto string, size int) cell {
		v := func(col string) float64 { return tab.Value(col, topo, size, proto) }
		c := cell{proto, v("data_overhead_mean"), v("proto_overhead_mean"), v("max_e2e_mean"), v("undelivered")}
		if math.IsNaN(c.data) {
			t.Fatalf("missing cell %s/%s/%d", topo, proto, size)
		}
		return c
	}
	for _, topo := range smallFig89().Topologies {
		for _, size := range []int{8, 16} {
			scmp := get(topo, "SCMP", size)
			dv := get(topo, "DVMRP", size)
			mo := get(topo, "MOSPF", size)
			cb := get(topo, "CBT", size)
			// Everything must actually deliver.
			for _, p := range []cell{scmp, dv, mo, cb} {
				if p.missing != 0 {
					t.Fatalf("%s/%s/%d: %.0f undelivered", topo, p.Protocol, size, p.missing)
				}
			}
			// Fig. 8 (a-c): DVMRP's flood-and-refresh data overhead
			// dominates; SCMP has the least data overhead.
			if dv.data <= scmp.data {
				t.Fatalf("%s size %d: DVMRP data %.0f <= SCMP %.0f",
					topo, size, dv.data, scmp.data)
			}
			for _, other := range []cell{dv, mo, cb} {
				if scmp.data > other.data*1.02 {
					t.Fatalf("%s size %d: SCMP data %.0f above %s %.0f",
						topo, size, scmp.data, other.Protocol, other.data)
				}
			}
			// Fig. 8 (d-f): MOSPF floods an LSA per membership change —
			// the steepest protocol overhead; SCMP and CBT are both far
			// below MOSPF.
			if mo.proto <= scmp.proto ||
				mo.proto <= cb.proto {
				t.Fatalf("%s size %d: MOSPF proto overhead not dominant", topo, size)
			}
			if scmp.proto > mo.proto/2 {
				t.Fatalf("%s size %d: SCMP proto overhead %.0f not well below MOSPF %.0f",
					topo, size, scmp.proto, mo.proto)
			}
			// Fig. 9: the shared-tree protocols may detour through the
			// center, so their delay is at least the SPT protocols'
			// (allowing sampling noise).
			if scmp.e2e < mo.e2e*0.8 {
				t.Fatalf("%s size %d: SCMP delay %.2f implausibly below MOSPF %.2f",
					topo, size, scmp.e2e, mo.e2e)
			}
		}
	}
}

func TestWriteFig89(t *testing.T) {
	cfg := Fig89Config{GroupSizes: []int{8}, Seeds: 1, SimTime: 3, DataRate: 1,
		PruneLifetime: 5, Topologies: []string{TopoArpanet}}
	points := RunFig89(cfg)
	var buf bytes.Buffer
	WriteFig8(&buf, points)
	WriteFig9(&buf, points)
	out := buf.String()
	for _, want := range []string{"Data overhead", "Protocol overhead", "Maximum end-to-end delay", "SCMP", "DVMRP", "MOSPF", "CBT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPlacementRulesBeatRandom(t *testing.T) {
	cfg := PlacementConfig{Nodes: 60, GroupSize: 15, Seeds: 3, Trials: 6, Kappa: 1.5}
	points := RunPlacement(cfg)
	if len(points.Rows) != len(PlacementRules) {
		t.Fatalf("got %d rules", len(points.Rows))
	}
	// The paper reports no single always-best placement but the
	// heuristics help "in most cases": rule 1 should not lose to random
	// placement by more than noise.
	rule1, random := points.Value("tree_cost_mean", "rule1-avgdelay"), points.Value("tree_cost_mean", "random")
	if !(rule1 <= random*1.1) {
		t.Fatalf("rule1 cost %.0f worse than random %.0f", rule1, random)
	}
	var buf bytes.Buffer
	WritePlacement(&buf, points)
	if !strings.Contains(buf.String(), "rule1-avgdelay") {
		t.Fatal("WritePlacement output incomplete")
	}
}

func TestPlaceRules(t *testing.T) {
	// Path graph: rule 2 picks an interior node; rule 3 the midpoint.
	g := topology.New(5)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), 1, 1)
	}
	rng := rng.New(1)
	if got := Place("rule3-diameter", g, rng); got != 2 {
		t.Fatalf("rule3 = %d, want midpoint 2", got)
	}
	if got := Place("rule1-avgdelay", g, rng); got != 2 {
		t.Fatalf("rule1 = %d, want 2", got)
	}
	r := Place("random", g, rng)
	if r < 0 || int(r) >= g.N() {
		t.Fatalf("random = %d", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown rule accepted")
		}
	}()
	Place("nope", g, rng)
}
