package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"scmp/internal/topology"
)

// This file is the differential gate for lazy reconvergence of the
// routing store. Fault sequences run through the real fault layer;
// after every event the next hops and least-cost distances the network
// answers with — rows refilled on demand against the arc mask apply
// maintains — are compared with an oracle that shares none of that
// machinery: the surviving links copied into a fresh graph, one plain
// Dijkstra per source and weight, and a parent walk per destination
// (Paths.To). The engine's tie-break ladder makes a row a pure function
// of the surviving link set, so agreement is exact.

// survivingGraph copies g without the links the fault state masks.
// Node ids are preserved; a crashed router stays as an isolated node.
func survivingGraph(g *topology.Graph, f *Faults) *topology.Graph {
	sub := topology.New(g.N())
	for u := 0; u < g.N(); u++ {
		for _, l := range g.Neighbors(topology.NodeID(u)) {
			if topology.NodeID(u) < l.To && !f.LinkIsDown(topology.NodeID(u), l.To) {
				sub.MustAddEdge(topology.NodeID(u), l.To, l.Delay, l.Cost)
			}
		}
	}
	return sub
}

// oracleHops is the from-scratch next-hop table of sub, with the
// least-cost distance of every pair beside it.
func oracleHops(sub *topology.Graph) ([][]topology.NodeID, [][]float64) {
	n := sub.N()
	want, cost := make([][]topology.NodeID, n), make([][]float64, n)
	spDelay, spCost := topology.NewLazyAllPairs(sub, topology.ByDelay), topology.NewLazyAllPairs(sub, topology.ByCost)
	for u := range want {
		want[u] = make([]topology.NodeID, n)
		sp := spDelay.Row(topology.NodeID(u))
		for v := range want[u] {
			want[u][v] = -1
			if path := sp.To(topology.NodeID(v)); len(path) > 1 {
				want[u][v] = path[1]
			}
		}
		cost[u] = spCost.Row(topology.NodeID(u)).Dist
	}
	return want, cost
}

type namedGraph struct {
	name string
	g    *topology.Graph
}

// reconvergeGraphs builds the fuzzed topologies the gate runs on.
func reconvergeGraphs(t *testing.T) []namedGraph {
	graphs := []namedGraph{{"ring", ringGraph()}}
	for seed := int64(1); seed <= 3; seed++ {
		wg, err := topology.Waxman(topology.DefaultWaxman(36), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, namedGraph{fmt.Sprintf("waxman%d", seed), wg.Graph})
	}
	cfg := topology.TransitStubConfig{TransitDomains: 2, TransitSize: 3, StubsPerTransitNode: 2, StubSize: 4, EdgeProb: 0.4}
	for seed := int64(4); seed <= 5; seed++ {
		ts, _, err := topology.TransitStub(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, namedGraph{fmt.Sprintf("transitstub%d", seed), ts})
	}
	return graphs
}

// overlapScript is the fixed prefix of every sequence: the fault
// overlaps the arc mask has to compose. x is the best-connected router
// and y, z two of its neighbours (y == z on a degree-1 graph).
func overlapScript(g *topology.Graph) []Step {
	x := topology.NodeID(0)
	for v := 1; v < g.N(); v++ {
		if g.Degree(topology.NodeID(v)) > g.Degree(x) {
			x = topology.NodeID(v)
		}
	}
	nb := g.Neighbors(x)
	y, z := nb[0].To, nb[len(nb)-1].To
	link := func(k StepKind, u, v topology.NodeID) Step { return Step{Kind: k, Node: int32(u), Arg: int32(v)} }
	node := func(k StepKind, u topology.NodeID) Step { return Step{Kind: k, Node: int32(u)} }
	script := []Step{
		// A router crashes while one of its links is already cut, and
		// returns while it still is: the link must stay masked.
		link(LinkDown, x, y), node(NodeDown, x), node(NodeUp, x), link(LinkUp, y, x),
		// A link is cut and restored while its endpoint is crashed: the
		// restore must not unmask it.
		node(NodeDown, x), link(LinkDown, z, x), link(LinkUp, x, z), node(NodeUp, x),
		// Two adjacent routers down; one returns.
		node(NodeDown, x), node(NodeDown, y), node(NodeUp, x), node(NodeUp, y),
	}
	// Cut every link of x one by one — the last cut disconnects it —
	// then restore them in the same order.
	for _, l := range nb {
		script = append(script, link(LinkDown, x, l.To))
	}
	for _, l := range nb {
		script = append(script, link(LinkUp, l.To, x))
	}
	return script
}

// randomFault draws one event; repeats of a fault already in force (and
// restores of one that is not) are left in as idempotence cases.
func randomFault(g *topology.Graph, rnd *rand.Rand) Step {
	u := topology.NodeID(rnd.Intn(g.N()))
	switch k := LinkDown + StepKind(rnd.Intn(4)); k {
	case LinkDown, LinkUp:
		nb := g.Neighbors(u)
		return Step{Kind: k, Node: int32(u), Arg: int32(nb[rnd.Intn(len(nb))].To)}
	default:
		return Step{Kind: k, Node: int32(u)}
	}
}

func TestEquivalenceLazyReconvergence(t *testing.T) {
	events := 60
	if testing.Short() {
		events = 15
	}
	for _, ng := range reconvergeGraphs(t) {
		name, g := ng.name, ng.g
		// Arm "all" reads every pair after every event; arm "some"
		// reads a few random rows, leaving the rest stale across
		// further events, and only at the end reads everything.
		for _, arm := range []string{"all", "some"} {
			rnd := rand.New(rand.NewSource(7))
			n := New(g, &echoProto{})
			f := n.InstallFaults(FaultPlan{})
			delay, cost := n.Delay, n.Cost
			script := overlapScript(g)
			for i := 0; i < events; i++ {
				script = append(script, randomFault(g, rnd))
			}
			check := func(label string, sources []int) {
				want, wantCost := oracleHops(survivingGraph(g, f))
				for _, u := range sources {
					for _, v := range rnd.Perm(g.N()) {
						if got := n.Delay.Hop(topology.NodeID(u), topology.NodeID(v)); got != want[u][v] {
							t.Fatalf("%s/%s %s: hop(%d,%d) = %d, want %d", name, arm, label, u, v, got, want[u][v])
						}
						if got := n.Cost.Row(topology.NodeID(u)).Dist[v]; got != wantCost[u][v] {
							t.Fatalf("%s/%s %s: cost(%d,%d) = %g, want %g", name, arm, label, u, v, got, wantCost[u][v])
						}
					}
				}
			}
			check("initial", rnd.Perm(g.N()))
			for i, ev := range script {
				label := fmt.Sprintf("event %d (%v %d,%d)", i, ev.Kind, ev.Node, ev.Arg)
				ev.At = n.Now()
				n.InstallScript([]Step{ev})
				n.Run()
				if n.Delay != delay || n.Cost != cost {
					t.Fatalf("%s/%s %s: a routing table was replaced", name, arm, label)
				}
				// The invariant lazy refills rest on: apply leaves every
				// row of both tables stale, and the mask it maintains
				// incrementally is the one the down sets imply.
				if got := n.Delay.Materialized() + n.Cost.Materialized(); got != 0 {
					t.Fatalf("%s/%s %s: %d rows survived the invalidation", name, arm, label, got)
				}
				for u := 0; u < g.N(); u++ {
					lo, hi := n.csr.Row(topology.NodeID(u))
					for a := lo; a < hi; a++ {
						if v := n.csr.ArcDst(a); f.down[a] != f.LinkIsDown(topology.NodeID(u), v) {
							t.Fatalf("%s/%s %s: mask[%d->%d] = %v", name, arm, label, u, v, f.down[a])
						}
					}
				}
				sources := rnd.Perm(g.N())
				if arm == "some" {
					sources = sources[:1+rnd.Intn(4)]
				}
				check(label, sources)
			}
			check("final", rnd.Perm(g.N()))
		}
	}
}
