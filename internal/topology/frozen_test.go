package topology_test

import (
	"strings"
	"testing"

	"scmp/internal/netsim"
	"scmp/internal/protocols/mospf"
	"scmp/internal/topology"
)

// TestAddEdgeAfterRoutingPanics checks the frozen-graph gate: once a
// graph has been routed over (its CSR view exists), AddEdge and
// MustAddEdge panic, while a Clone of it stays editable.
func TestAddEdgeAfterRoutingPanics(t *testing.T) {
	build := func() *topology.Graph {
		g := topology.New(3)
		g.MustAddEdge(0, 1, 1, 1)
		return g
	}
	triggers := []struct {
		name  string
		route func(*topology.Graph)
	}{
		{"CSR", func(g *topology.Graph) { g.CSR() }},
		{"netsim.New", func(g *topology.Graph) { netsim.New(g, mospf.New()) }},
	}
	adds := []struct {
		name string
		add  func(*topology.Graph)
	}{
		{"AddEdge", func(g *topology.Graph) { _ = g.AddEdge(1, 2, 1, 1) }},
		{"MustAddEdge", func(g *topology.Graph) { g.MustAddEdge(1, 2, 1, 1) }},
	}
	for _, tr := range triggers {
		for _, a := range adds {
			g := build()
			tr.route(g)
			func() {
				defer func() {
					r := recover()
					if msg, _ := r.(string); !strings.Contains(msg, "already routed over") {
						t.Errorf("%s after %s: recovered %v, want the routed-over panic", a.name, tr.name, r)
					}
				}()
				a.add(g)
			}()
			if g.M() != 1 || g.HasEdge(1, 2) {
				t.Errorf("%s after %s changed the graph: M = %d", a.name, tr.name, g.M())
			}
			c := g.Clone()
			if err := c.AddEdge(1, 2, 1, 1); err != nil || c.M() != 2 {
				t.Errorf("Clone after %s: AddEdge = %v, M = %d; want an editable copy", tr.name, err, c.M())
			}
			if g.M() != 1 {
				t.Errorf("editing the Clone after %s changed the original: M = %d", tr.name, g.M())
			}
		}
	}
}
