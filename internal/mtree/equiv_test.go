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
// implementation (ref.go) and must match it EXACTLY — same tree edges,
// same JoinResult/LeaveResult fields, same bound, bit-identical
// per-node delays. Any tolerance here would let the caches drift; the
// whole point of the canonical top-down summation order is that no
// tolerance is needed.

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

// connectedAvoidTables finds a single link whose removal keeps every
// node reachable from root and returns delay/cost tables over that
// masked subgraph — alternate tables for exercising SetAllPairs with
// genuinely different path values.
func connectedAvoidTables(g *topology.Graph, root topology.NodeID) (*topology.AllPairs, *topology.AllPairs) {
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
			spDelay := topology.NewAllPairsAvoid(g, topology.ByDelay, avoid)
			row := spDelay.Row(root)
			ok := true
			for v := 0; v < n; v++ {
				if !row.Reachable(topology.NodeID(v)) {
					ok = false
					break
				}
			}
			if ok {
				return spDelay, topology.NewAllPairsAvoid(g, topology.ByCost, avoid)
			}
		}
	}
	return nil, nil // every single link is a bridge to somewhere; caller skips the swap
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

// TestDCDMFastMatchesRef runs every (kappa, churn distribution, QoS
// budget) combination through a few hundred scripted operations —
// joins, leaves, batched leaves, subtree detaches and table swaps —
// checking results op by op and full state periodically.
func TestDCDMFastMatchesRef(t *testing.T) {
	kappas := []struct {
		name string
		k    float64
	}{{"kappa1", 1}, {"kappa1.5", 1.5}, {"kappaInf", math.Inf(1)}}
	for _, kc := range kappas {
		for _, pareto := range []bool{false, true} {
			for _, withBudget := range []bool{false, true} {
				dist := "poisson"
				if pareto {
					dist = "pareto"
				}
				budget := "nobudget"
				if withBudget {
					budget = "budget"
				}
				name := fmt.Sprintf("%s/%s/%s", kc.name, dist, budget)
				t.Run(name, func(t *testing.T) {
					runEquivChurn(t, kc.k, pareto, withBudget)
				})
			}
		}
	}
}

func runEquivChurn(t *testing.T, kappa float64, pareto, withBudget bool) {
	rng := rand.New(rand.NewSource(42))
	wg, err := topology.Waxman(topology.DefaultWaxman(100), rng)
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	root := topology.NodeID(0)
	spDelay := topology.NewAllPairs(g, topology.ByDelay)
	spCost := topology.NewAllPairs(g, topology.ByCost)
	altDelay, altCost := connectedAvoidTables(g, root)

	// Both engines share the same table instances, so every float they
	// read is bit-identical; divergence can only come from the engines
	// themselves.
	fast := NewDCDM(g, root, kappa, spDelay, spCost)
	ref := newDCDMRef(g, root, kappa, spDelay, spCost)
	if withBudget {
		// A budget below the farthest node's unicast delay forces some
		// best-effort admissions; 80% of the max exercises both sides.
		maxUL := 0.0
		row := spDelay.Row(root)
		for v := 0; v < g.N(); v++ {
			if d := row.Delay[v]; !math.IsInf(d, 1) && d > maxUL {
				maxUL = d
			}
		}
		fast.SetQoSBudget(0.8 * maxUL)
		ref.SetQoSBudget(0.8 * maxUL)
	}

	members := pickMembers(rng, g.N(), 30, root)
	ops := genChurnOps(rng, members, 10, pareto)
	onAlt := false
	for i, op := range ops {
		tag := fmt.Sprintf("op %d (member %d join=%v)", i, op.member, op.join)
		if op.join {
			compareJoin(t, tag, fast.Join(op.member), ref.Join(op.member))
		} else {
			fr, rr := fast.Leave(op.member), ref.Leave(op.member)
			if fr.Member != rr.Member || !slices.Equal(fr.Pruned, rr.Pruned) {
				t.Fatalf("%s: leave diverged: fast %+v ref %+v", tag, fr, rr)
			}
		}

		switch {
		case i%37 == 36:
			// Batched leave: the fast engine prunes the departures in
			// one shared pass, the reference leaves sequentially. The
			// final trees must agree exactly; the pruned sets must be
			// equal as sets (the pass order differs by design).
			cur := slices.Clone(fast.Tree().Members())
			if len(cur) >= 3 {
				batch := cur[:3]
				fp := slices.Clone(fast.LeaveBatch(batch))
				var rp []topology.NodeID
				for _, m := range batch {
					rp = append(rp, ref.Leave(m).Pruned...)
				}
				slices.Sort(fp)
				slices.Sort(rp)
				if !slices.Equal(fp, rp) {
					t.Fatalf("%s: batch-leave pruned sets diverged: fast %v ref %v", tag, fp, rp)
				}
			}
		case i%53 == 52:
			// Detach a non-root subtree, as link-fault repair would.
			nodes := fast.Tree().Nodes()
			if len(nodes) > 1 {
				victim := nodes[1+rng.Intn(len(nodes)-1)]
				fo, ro := fast.DetachSubtree(victim), ref.DetachSubtree(victim)
				if !slices.Equal(fo, ro) {
					t.Fatalf("%s: detach orphans diverged: fast %v ref %v", tag, fo, ro)
				}
			}
		case i%71 == 70 && altDelay != nil:
			// Swap shortest-path tables, as fault repair does, and back
			// again later; the bound multiset is rebuilt both times.
			if onAlt {
				fast.SetAllPairs(spDelay, spCost)
				ref.SetAllPairs(spDelay, spCost)
			} else {
				fast.SetAllPairs(altDelay, altCost)
				ref.SetAllPairs(altDelay, altCost)
			}
			onAlt = !onAlt
		}

		if i%7 == 0 || i == len(ops)-1 {
			compareEngines(t, tag, fast, ref)
		} else if fb, rb := fast.Bound(), ref.Bound(); fb != rb {
			t.Fatalf("%s: bound diverged: fast %v ref %v", tag, fb, rb)
		}
	}
	compareEngines(t, "final", fast, ref)
}
