package mtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scmp/internal/topology"
)

// This file is the differential gate for the incremental DCDM engine:
// the dense-tree fast path (tree.go/dcdm.go) is driven through seeded
// Poisson and Pareto churn side by side with the preserved historical
// implementation (ref_test.go) and must match it EXACTLY — same tree
// edges, same JoinResult/LeaveResult fields, same bound, bit-identical
// per-node delays. Any tolerance here would let the caches drift; the
// whole point of the canonical top-down summation order is that no
// tolerance is needed.
//
// The oracle scans every on-tree router over complete rows, which is
// the obviously-correct enumeration the engine's radius-bounded graft
// search must equal; the lazy arms give the engine suspended rows of
// its own to search over while the oracle completes its own copies.

// churnOp is one scripted membership event.
type churnOp struct {
	t      float64
	member topology.NodeID
	join   bool
}

// genChurnOps mirrors netsim's churn generator shape: each member gets
// an alternating join/leave timeline with inter-event gaps drawn from
// the given distribution, and the per-member timelines are merged into
// one time-ordered script (stable sort, so same-time events keep
// member-major order).
func genChurnOps(rng *rand.Rand, members []topology.NodeID, perMember int, pareto bool) []churnOp {
	var ops []churnOp
	for _, m := range members {
		t := 0.0
		join := true
		for i := 0; i < perMember; i++ {
			var gap float64
			if pareto {
				gap = 0.5 / math.Pow(1-rng.Float64(), 1/1.5) // xm=0.5, alpha=1.5
			} else {
				gap = rng.ExpFloat64() * 1.0
			}
			t += gap
			ops = append(ops, churnOp{t: t, member: m, join: join})
			join = !join
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].t < ops[j].t })
	return ops
}

// arcMask evaluates a link predicate into the arc mask the masked
// all-pairs builders take (see topology.CSR).
func arcMask(g *topology.Graph, avoid func(u, v topology.NodeID) bool) []bool {
	c := g.CSR()
	mask := make([]bool, c.NumArcs())
	for u := 0; u < g.N(); u++ {
		lo, hi := c.Row(topology.NodeID(u))
		for a := lo; a < hi; a++ {
			mask[a] = avoid(topology.NodeID(u), c.ArcDst(a))
		}
	}
	return mask
}

// connectedAvoidMask finds a single link whose removal keeps the graph
// connected and returns the arc mask without it — the mask the tables
// are invalidated onto to exercise Rebase with genuinely different path
// values. It is nil when every single link is a bridge.
func connectedAvoidMask(g *topology.Graph) []bool {
	n := g.N()
	for u := 0; u < n; u++ {
		for _, nb := range g.Neighbors(topology.NodeID(u)) {
			if int(nb.To) < u {
				continue // undirected: try each link once
			}
			au, av := topology.NodeID(u), nb.To
			avoid := arcMask(g, func(x, y topology.NodeID) bool {
				return (x == au && y == av) || (x == av && y == au)
			})
			sp := topology.NewLazyAllPairs(g, topology.ByDelay)
			sp.Invalidate(avoid)
			row := sp.Row(0)
			ok := true
			for v := 0; v < n; v++ {
				if !row.Reachable(topology.NodeID(v)) {
					ok = false
					break
				}
			}
			if ok {
				return avoid
			}
		}
	}
	return nil
}

// compareEngines demands exact equality of every observable: bound,
// member set, node set, edge set, per-node multicast delay (bitwise),
// and structural validity of both trees.
func compareEngines(t *testing.T, tag string, d *DCDM, r *dcdmRef) {
	t.Helper()
	ft, rt := d.Tree(), r.Tree()
	if fb, rb := d.Bound(), r.Bound(); fb != rb {
		t.Fatalf("%s: bound diverged: fast %v ref %v", tag, fb, rb)
	}
	if fm, rm := ft.Members(), rt.Members(); !slices.Equal(fm, rm) {
		t.Fatalf("%s: members diverged: fast %v ref %v", tag, fm, rm)
	}
	if got, want := ft.MemberCount(), len(rt.Members()); got != want {
		t.Fatalf("%s: MemberCount %d, ref has %d members", tag, got, want)
	}
	fn, rn := ft.Nodes(), rt.Nodes()
	if !slices.Equal(fn, rn) {
		t.Fatalf("%s: nodes diverged: fast %v ref %v", tag, fn, rn)
	}
	fe, re := ft.Edges(), rt.Edges()
	if len(fe) != len(re) {
		t.Fatalf("%s: edge counts diverged: fast %d ref %d", tag, len(fe), len(re))
	}
	for e := range fe {
		if !re[e] {
			t.Fatalf("%s: fast has edge %v, ref does not", tag, e)
		}
	}
	for _, v := range fn {
		if fd, rd := ft.Delay(v), rt.Delay(v); fd != rd {
			t.Fatalf("%s: ml(%d) diverged: fast %v ref %v", tag, v, fd, rd)
		}
	}
	if fd, rd := ft.TreeDelay(), rt.TreeDelay(); fd != rd {
		t.Fatalf("%s: tree delay diverged: fast %v ref %v", tag, fd, rd)
	}
	if err := ft.Validate(); err != nil {
		t.Fatalf("%s: fast tree invalid: %v", tag, err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("%s: ref tree invalid: %v", tag, err)
	}
}

func compareJoin(t *testing.T, tag string, f, r JoinResult) {
	t.Helper()
	if f.Member != r.Member || f.AlreadyOn != r.AlreadyOn ||
		f.Restructured != r.Restructured || f.BestEffort != r.BestEffort {
		t.Fatalf("%s: join flags diverged: fast %+v ref %+v", tag, f, r)
	}
	if !slices.Equal(f.Path, r.Path) {
		t.Fatalf("%s: join path diverged: fast %v ref %v", tag, f.Path, r.Path)
	}
	if !slices.Equal(f.Pruned, r.Pruned) {
		t.Fatalf("%s: join pruned diverged: fast %v ref %v", tag, f.Pruned, r.Pruned)
	}
}

// equivCase is one cell of the differential matrix.
type equivCase struct {
	kappa      float64
	pareto     bool
	withBudget bool
	// lazy gives the engines and the oracles each their own lazy tables
	// (so the engines search suspended rows) and runs three groups with
	// different roots and kappas over them, a row advanced by one group
	// being reused by the next; otherwise one group runs on one table
	// pair the engine and the oracle share, every row completed before
	// the first join.
	lazy bool
	// tieHeavy swaps the Waxman graph for small-integer weights, where
	// equal-cost candidates — the >= vs > edge of the radius rule — are
	// the common case.
	tieHeavy bool
}

// TestDCDMFastMatchesRef runs every (kappa, churn distribution, QoS
// budget, table mode, weight family) combination through a few hundred
// scripted operations — joins, leaves, batched leaves, subtree detaches
// and table swaps — checking results op by op and full state
// periodically.
func TestDCDMFastMatchesRef(t *testing.T) {
	kappas := []struct {
		name string
		k    float64
	}{{"kappa1", 1}, {"kappa1.5", 1.5}, {"kappaInf", math.Inf(1)}}
	for _, kc := range kappas {
		for _, pareto := range []bool{false, true} {
			for _, withBudget := range []bool{false, true} {
				for _, lazy := range []bool{false, true} {
					for _, tieHeavy := range []bool{false, true} {
						name := kc.name + "/" + either(pareto, "pareto", "poisson") + "/" + either(withBudget, "budget", "nobudget") +
							either(lazy, "/lazy", "") + either(tieHeavy, "/ties", "")
						c := equivCase{kappa: kc.k, pareto: pareto, withBudget: withBudget, lazy: lazy, tieHeavy: tieHeavy}
						t.Run(name, func(t *testing.T) { runEquivChurn(t, c) })
					}
				}
			}
		}
	}
}

func either(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}

// tieHeavyGraph is a connected 100-node random graph whose delays and
// costs are drawn from {1, 2, 3}.
func tieHeavyGraph(rng *rand.Rand) *topology.Graph {
	g := topology.New(100)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if v == u+1 || rng.Float64() < 0.04 {
				g.MustAddEdge(topology.NodeID(u), topology.NodeID(v), float64(1+rng.Intn(3)), float64(1+rng.Intn(3)))
			}
		}
	}
	return g
}

// equivGroup is one group's engine and oracle.
type equivGroup struct {
	fast *DCDM
	ref  *dcdmRef
}

// equivTables is one (delay, cost) table pair for the engines and one
// for the oracles: separate ones when lazy (an oracle completes every
// row it reads, which would leave the engine nothing suspended to
// search), otherwise one shared pair whose rows are all completed up
// front, so the engine's searches run over complete rows.
type equivTables struct {
	fastDelay, fastCost, refDelay, refCost *topology.AllPairs
}

func newEquivTables(g *topology.Graph, lazy bool) equivTables {
	if lazy {
		return equivTables{
			topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost),
			topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost),
		}
	}
	d, c := topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost)
	for v := 0; v < g.N(); v++ {
		d.Row(topology.NodeID(v))
		c.Row(topology.NodeID(v))
	}
	return equivTables{d, c, d, c}
}

// invalidate moves every table onto mask, as a fault does the network's
// routing store (a completed table restarts its rows lazily).
func (tb equivTables) invalidate(mask []bool) {
	for _, ap := range []*topology.AllPairs{tb.fastDelay, tb.fastCost, tb.refDelay, tb.refCost} {
		ap.Invalidate(mask)
	}
}

// sameRowsTouched requires the engines to have materialised exactly as
// many rows as the oracles did: the bounded search reads less of a row,
// never fewer rows.
func (tb equivTables) sameRowsTouched(t *testing.T, tag string) {
	t.Helper()
	if f, r := tb.fastDelay.Materialized(), tb.refDelay.Materialized(); f != r {
		t.Fatalf("%s: delay rows materialised: fast %d ref %d", tag, f, r)
	}
	if f, r := tb.fastCost.Materialized(), tb.refCost.Materialized(); f != r {
		t.Fatalf("%s: cost rows materialised: fast %d ref %d", tag, f, r)
	}
}

func runEquivChurn(t *testing.T, c equivCase) {
	rng := rand.New(rand.NewSource(42))
	var g *topology.Graph
	if c.tieHeavy {
		g = tieHeavyGraph(rng)
	} else {
		wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
		if err != nil {
			t.Fatal(err)
		}
		g = wg.Graph
	}
	tables := newEquivTables(g, c.lazy)
	altMask := connectedAvoidMask(g)

	type groupSpec struct {
		root  topology.NodeID
		kappa float64
	}
	specs := []groupSpec{{0, c.kappa}}
	if c.lazy {
		specs = append(specs, groupSpec{33, 1}, groupSpec{71, 2.5})
	}
	var groups []equivGroup
	for _, sp := range specs {
		gr := equivGroup{
			fast: NewDCDM(g, sp.root, sp.kappa, tables.fastDelay, tables.fastCost),
			ref:  newDCDMRef(g, sp.root, sp.kappa, tables.refDelay, tables.refCost),
		}
		if c.withBudget {
			// A budget below the farthest node's unicast delay forces
			// some best-effort admissions; 80% of the max exercises
			// both sides.
			maxUL := 0.0
			for _, d := range topology.NewLazyAllPairs(g, topology.ByDelay).Row(sp.root).Delay {
				if !math.IsInf(d, 1) && d > maxUL {
					maxUL = d
				}
			}
			gr.fast.SetQoSBudget(0.8 * maxUL)
			gr.ref.SetQoSBudget(0.8 * maxUL)
		}
		groups = append(groups, gr)
	}

	members := pickMembers(rng, g.N(), 30, 0)
	ops := genChurnOps(rng, members, 10, c.pareto)
	onAlt := false
	for i, op := range ops {
		for gi, gr := range groups {
			fast, ref := gr.fast, gr.ref
			tag := fmt.Sprintf("op %d group %d (member %d join=%v)", i, gi, op.member, op.join)
			if op.join {
				compareJoin(t, tag, fast.Join(op.member), ref.Join(op.member))
			} else {
				fr, rr := fast.Leave(op.member), ref.Leave(op.member)
				if fr.Member != rr.Member || !slices.Equal(fr.Pruned, rr.Pruned) {
					t.Fatalf("%s: leave diverged: fast %+v ref %+v", tag, fr, rr)
				}
			}

			if i%53 == 52 {
				// Detach a non-root subtree, as link-fault repair would.
				nodes := slices.DeleteFunc(slices.Clone(fast.Tree().Nodes()), func(v topology.NodeID) bool { return v == fast.root })
				if len(nodes) > 0 {
					victim := nodes[rng.Intn(len(nodes))]
					fo, ro := fast.DetachSubtree(victim), ref.DetachSubtree(victim)
					if !slices.Equal(fo, ro) {
						t.Fatalf("%s: detach orphans diverged: fast %v ref %v", tag, fo, ro)
					}
				}
			}

			if i%7 == 0 || i == len(ops)-1 {
				compareEngines(t, tag, fast, ref)
			} else if fb, rb := fast.Bound(), ref.Bound(); fb != rb {
				t.Fatalf("%s: bound diverged: fast %v ref %v", tag, fb, rb)
			}
		}
		if i%71 == 70 && altMask != nil {
			// Move the shortest-path tables onto the masked topology, as
			// a fault does, and back again later; every group's bound
			// is rebased both times.
			mask := altMask
			if onAlt {
				mask = nil
			}
			tables.invalidate(mask)
			for gi, gr := range groups {
				gr.fast.Rebase()
				gr.ref.Rebase()
				compareEngines(t, fmt.Sprintf("op %d group %d rebased", i, gi), gr.fast, gr.ref)
			}
			onAlt = !onAlt
		}
	}
	for gi, gr := range groups {
		compareEngines(t, fmt.Sprintf("final group %d", gi), gr.fast, gr.ref)
	}
	tables.sameRowsTouched(t, "tables")
}

// TestDCDMFastMatchesRefHandBuilt pins the two edges of the radius rule
// on graphs small enough to check by hand, against the oracle and
// against the expected graft.
func TestDCDMFastMatchesRefHandBuilt(t *testing.T) {
	type edge struct {
		u, v        topology.NodeID
		delay, cost float64
	}
	for _, tc := range []struct {
		name     string
		n        int
		edges    []edge
		kappa    float64
		members  []topology.NodeID // joined in order; the last join is the one under test
		want     []topology.NodeID
		unseen   topology.NodeID // a router the last join's cost-row search must not have reached; -1 = none
		infeasLC topology.NodeID // the nearest on-tree router, which P_lc cannot use; -1 = none
	}{
		{
			// Root 0, members 1 (ul 10, so the kappa = 1 bound is 10)
			// and 2. Router 3 joins. By cost its nearest on-tree router
			// is 1 (cost 1), but ml(1) + 5 = 15 breaks the bound; P_lc
			// to the root runs over relay 4 (cost 4, delay 40) and
			// breaks it too; P_lc to 2 is the direct link, feasible at
			// cost 20, which sets the radius. Inside it P_sl to the
			// root — the direct link, delay 8, cost 10 — is feasible
			// and cheaper, so a delay-row candidate wins, for a router
			// whose cost-row candidate was infeasible. Routers 5 and 6
			// hang off 3 beyond the radius: 5 is the settled router
			// that ends the walk, 6 is never reached.
			name: "delay-row candidate wins inside the radius",
			n:    7,
			edges: []edge{
				{0, 1, 10, 30}, {0, 2, 5, 29},
				{3, 1, 5, 1}, {3, 0, 8, 10}, {3, 2, 4, 20},
				{3, 4, 20, 2}, {4, 0, 20, 2},
				{3, 5, 1, 50}, {5, 6, 1, 50},
			},
			kappa:    1,
			members:  []topology.NodeID{1, 2, 3},
			want:     []topology.NodeID{0, 3},
			unseen:   6,
			infeasLC: 1,
		},
		{
			// Routers 1 and 2 are both on the tree at cost 2 from the
			// joining router 3; 1 settles first (lower id) but 2 has
			// the smaller multicast delay and wins the ml rung. A walk
			// that stopped at the first router of equal cost would
			// never see it.
			name: "equal-cost candidate settled later wins on ml",
			n:    4,
			edges: []edge{
				{0, 1, 5, 1}, {0, 2, 1, 1},
				{3, 1, 3, 2}, {3, 2, 3, 2},
			},
			kappa:    2,
			members:  []topology.NodeID{1, 2, 3},
			want:     []topology.NodeID{2, 3},
			unseen:   -1,
			infeasLC: -1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.New(tc.n)
			for _, e := range tc.edges {
				g.MustAddEdge(e.u, e.v, e.delay, e.cost)
			}
			tb := newEquivTables(g, true)
			fast := NewDCDM(g, 0, tc.kappa, tb.fastDelay, tb.fastCost)
			ref := newDCDMRef(g, 0, tc.kappa, tb.refDelay, tb.refCost)
			var last JoinResult
			for _, m := range tc.members {
				last = fast.Join(m)
				compareJoin(t, fmt.Sprintf("join %d", m), last, ref.Join(m))
			}
			compareEngines(t, "final", fast, ref)
			if !slices.Equal(last.Path, tc.want) {
				t.Fatalf("last join grafted %v, want %v", last.Path, tc.want)
			}
			s := tc.members[len(tc.members)-1]
			if v := tc.infeasLC; v >= 0 {
				lc := tb.refCost.Row(s)
				if ml := ref.Tree().Delay(v) + lc.Delay[v]; !(ml > ref.Bound()) {
					t.Fatalf("fixture: P_lc(%d,%d) has ml %v within the bound %v", s, v, ml, ref.Bound())
				}
			}
			if v := tc.unseen; v >= 0 {
				lc := tb.fastCost.Near(s)
				if c := lc.Cost(v); !math.IsInf(c, 1) {
					t.Fatalf("graft search settled router %d (cost %v), beyond the radius", v, c)
				}
			}
			tb.sameRowsTouched(t, "tables")
		})
	}
}
