package experiment

import (
	"bytes"
	"strings"
	"testing"

	"scmp/internal/rng"
	"scmp/internal/topology"
)

// smallDomains is a ~300-node instance: 12 transit nodes, 24 stub
// domains of 12 nodes (k: flat 1, transit 3, attach 12, natural 27).
func smallDomains() DomainsConfig {
	return DomainsConfig{
		Topology: topology.TransitStubConfig{
			TransitDomains:      3,
			TransitSize:         4,
			StubsPerTransitNode: 2,
			StubSize:            12,
			EdgeProb:            0.4,
		},
		Groupings: []DomainGrouping{GroupFlat, GroupTransit, GroupAttach, GroupNatural},
		Members:   48,
		Kappa:     2.0,
		Seeds:     2,
	}
}

// TestDomainsGroupingLabelsValid checks every grouping ladder rung
// against the DomainView contract: dense labels, connected domains,
// and the expected domain counts.
func TestDomainsGroupingLabelsValid(t *testing.T) {
	cfg := smallDomains().Topology
	g, info, err := topology.TransitStub(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	transitN := cfg.TransitDomains * cfg.TransitSize
	wantK := map[DomainGrouping]int{
		GroupFlat:    1,
		GroupTransit: cfg.TransitDomains,
		GroupAttach:  transitN,
		GroupNatural: cfg.TransitDomains + transitN*cfg.StubsPerTransitNode,
	}
	for grouping, k := range wantK {
		view, err := topology.NewDomainView(g, DomainLabels(cfg, info, grouping))
		if err != nil {
			t.Fatalf("%v: %v", grouping, err)
		}
		if view.K() != k {
			t.Fatalf("%v: K=%d, want %d", grouping, view.K(), k)
		}
	}
}

// TestDomainsFlatHierEqualAtK1 is the experiment-level arm of the
// differential gate: with a single all-covering domain the composer's
// workload metrics must equal the flat engine's exactly — same tree
// cost, same worst member delay, same control hop count.
func TestDomainsFlatHierEqualAtK1(t *testing.T) {
	cfg := smallDomains()
	g, info, err := topology.TransitStub(cfg.Topology, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	view, err := topology.NewDomainView(g, DomainLabels(cfg.Topology, info, GroupFlat))
	if err != nil {
		t.Fatal(err)
	}
	members := pickMembers(rng.New(77), g.N(), cfg.Members, -1)
	var flat, hier domainsRun
	runDomainsFlat(g, view, members, cfg.Kappa, &flat)
	runDomainsHier(view, members, cfg.Kappa, &hier)
	if flat.cost != hier.cost || flat.maxDelay != hier.maxDelay || flat.ctrl != hier.ctrl {
		t.Fatalf("k=1 composer diverged from flat engine:\nflat cost=%g maxDelay=%g ctrl=%g\nhier cost=%g maxDelay=%g ctrl=%g",
			flat.cost, flat.maxDelay, flat.ctrl, hier.cost, hier.maxDelay, hier.ctrl)
	}
	if hier.active != 1 {
		t.Fatalf("k=1 composer reports %g active domains", hier.active)
	}
}

// TestDomainsSweepShape runs the small sweep and checks the scalability
// claims the arms exist to demonstrate: bounded tree-cost regression,
// strictly cheaper control walks, and a smaller resident table
// footprint as the domain count grows.
func TestDomainsSweepShape(t *testing.T) {
	cfg := smallDomains()
	tab := RunDomains(cfg)
	if len(tab.Rows) != len(cfg.Groupings) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(cfg.Groupings))
	}
	// arm is one grouping's means.
	type arm struct {
		Domains                                   int
		cost, maxDelay, ctrlHops, tableB, actives float64
	}
	get := func(name string) arm {
		for _, r := range tab.Rows {
			if r.Key[1] == name {
				v := func(col string) float64 { return tab.Value(col, r.Key[:]...) }
				return arm{r.Key[0].(int), v("tree_cost_mean"), v("max_delay_mean"),
					v("ctrl_hops_mean"), v("table_bytes_mean"), v("active_domains_mean")}
			}
		}
		t.Fatalf("missing arm %q", name)
		return arm{}
	}
	flat := get("flat")
	if flat.Domains != 1 || flat.actives != 1 {
		t.Fatalf("flat arm: domains=%d active=%g", flat.Domains, flat.actives)
	}
	for i, name := range []string{"transit", "attach", "natural"} {
		p := get(name)
		if p.Domains <= 1 {
			t.Fatalf("%s arm: domain count %d", name, p.Domains)
		}
		// Rows list by domain count: flat first, then the ladder.
		if tab.Rows[i+1].Key[1] != name {
			t.Fatalf("row %d is %v, want %s (domains-ascending order)", i+1, tab.Rows[i+1].Key[1], name)
		}
		// Hierarchical trees trade some cost for locality; the regression
		// must stay bounded for the architecture to make sense.
		if p.cost > 2.5*flat.cost {
			t.Fatalf("%s arm: tree cost %.1f blows past the flat baseline %.1f",
				name, p.cost, flat.cost)
		}
		if p.maxDelay <= 0 || p.cost <= 0 {
			t.Fatalf("%s arm: degenerate metrics %+v", name, p)
		}
	}
	natural := get("natural")
	if natural.ctrlHops >= flat.ctrlHops {
		t.Fatalf("control locality lost: natural %.2f hops/join >= flat %.2f",
			natural.ctrlHops, flat.ctrlHops)
	}
	if natural.tableB >= flat.tableB {
		t.Fatalf("resident tables not smaller: natural %.0fB >= flat %.0fB",
			natural.tableB, flat.tableB)
	}
	if natural.actives <= 1 {
		t.Fatal("natural arm never activated a non-core domain")
	}
}

// TestDomainsParallelDeterminism: the sweep renders the exact same
// bytes serial and fanned over 4 workers.
func TestDomainsParallelDeterminism(t *testing.T) {
	cfg := smallDomains()
	cfg.Members = 24
	serial, parallel := cfg, cfg
	serial.Parallel = 1
	parallel.Parallel = 4
	var a, b bytes.Buffer
	if err := WriteCSV(&a, RunDomains(serial)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, RunDomains(parallel)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("parallel run diverged from serial:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestWriteDomains(t *testing.T) {
	cfg := smallDomains()
	cfg.Seeds, cfg.Members = 1, 16
	points := RunDomains(cfg)
	var buf bytes.Buffer
	WriteDomains(&buf, points)
	out := buf.String()
	for _, want := range []string{"grouping", "flat", "natural", "tables_MB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, points); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(points.Rows)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(points.Rows)+1)
	}
}
