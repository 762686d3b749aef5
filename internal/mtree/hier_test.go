package mtree

import (
	"math/rand"
	"testing"

	"scmp/internal/topology"
)

// tsView generates a transit-stub graph and its domain view from the
// generator's own domain labels.
func tsView(t testing.TB, cfg topology.TransitStubConfig, seed int64) (*topology.Graph, *topology.DomainView) {
	t.Helper()
	g, info, err := topology.TransitStub(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("TransitStub: %v", err)
	}
	view, err := topology.NewDomainView(g, info.Domain)
	if err != nil {
		t.Fatalf("NewDomainView: %v", err)
	}
	return g, view
}

// flatView wraps g in a single all-covering domain (the k=1 degenerate
// labelling).
func flatView(t testing.TB, g *topology.Graph) *topology.DomainView {
	t.Helper()
	view, err := topology.NewDomainView(g, make([]int, g.N()))
	if err != nil {
		t.Fatalf("NewDomainView(flat): %v", err)
	}
	return view
}

// requireTreesIdentical asserts node-for-node equality of structure,
// membership and exact delay between two trees over the same graph.
func requireTreesIdentical(t *testing.T, step int, flat, hier *Tree) {
	t.Helper()
	n := flat.g.N()
	for v := 0; v < n; v++ {
		id := topology.NodeID(v)
		if flat.OnTree(id) != hier.OnTree(id) {
			t.Fatalf("step %d: node %d onTree flat=%v hier=%v", step, v, flat.OnTree(id), hier.OnTree(id))
		}
		if !flat.OnTree(id) {
			continue
		}
		fp, fok := flat.Parent(id)
		hp, hok := hier.Parent(id)
		if fok != hok || fp != hp {
			t.Fatalf("step %d: node %d parent flat=%d,%v hier=%d,%v", step, v, fp, fok, hp, hok)
		}
		if flat.IsMember(id) != hier.IsMember(id) {
			t.Fatalf("step %d: node %d member flat=%v hier=%v", step, v, flat.IsMember(id), hier.IsMember(id))
		}
		if flat.Delay(id) != hier.Delay(id) {
			t.Fatalf("step %d: node %d delay flat=%g hier=%g", step, v, flat.Delay(id), hier.Delay(id))
		}
	}
	if flat.Cost() != hier.Cost() {
		t.Fatalf("step %d: cost flat=%g hier=%g", step, flat.Cost(), hier.Cost())
	}
	if flat.TreeDelay() != hier.TreeDelay() {
		t.Fatalf("step %d: tree delay flat=%g hier=%g", step, flat.TreeDelay(), hier.TreeDelay())
	}
}

// TestHierSingleDomainMatchesFlat is the k=1 arm of the differential
// gate: with one domain covering the whole graph, the hierarchical
// composer must reproduce the flat incremental DCDM *exactly* — same
// graft paths, same tree bytes, same delays — under a long random
// join/leave churn. The single-domain sub shares the original graph
// pointer, so any divergence is a composer bug, not a float artifact.
func TestHierSingleDomainMatchesFlat(t *testing.T) {
	g, _ := tsView(t, topology.DefaultTransitStub(), 11)
	view := flatView(t, g)
	root := view.MRouters()[0]
	const kappa = 1.5
	flat := NewDCDM(g, root, kappa, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))
	hier := NewHierDCDM(view, view.MRouters(), 0, kappa)

	r := rand.New(rand.NewSource(42))
	on := make(map[topology.NodeID]bool)
	var members []topology.NodeID
	for step := 0; step < 400; step++ {
		if len(on) == 0 || (r.Intn(3) != 0 && len(on) < g.N()/2) {
			v := topology.NodeID(r.Intn(g.N()))
			if on[v] || v == root {
				continue
			}
			fres := flat.Join(v)
			hres := hier.Join(v)
			if fres.AlreadyOn != hres.AlreadyOn || fres.Restructured != hres.Restructured {
				t.Fatalf("step %d: join(%d) results differ: flat=%+v hier=%+v", step, v, fres, hres)
			}
			if len(fres.Path) != len(hres.Path) {
				t.Fatalf("step %d: join(%d) paths differ: flat=%v hier=%v", step, v, fres.Path, hres.Path)
			}
			for i := range fres.Path {
				if fres.Path[i] != hres.Path[i] {
					t.Fatalf("step %d: join(%d) paths differ at %d: flat=%v hier=%v", step, v, i, fres.Path, hres.Path)
				}
			}
			on[v] = true
			members = append(members, v)
		} else {
			v := members[r.Intn(len(members))]
			if !on[v] {
				continue
			}
			flat.Leave(v)
			hier.Leave(v)
			delete(on, v)
		}
		requireTreesIdentical(t, step, flat.Tree(), hier.Tree())
		if err := hier.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestHierMultiDomainChurn is the multi-domain arm of the gate: a long
// random churn over every domain of the default transit-stub topology,
// re-validating the composed/local consistency contract after each
// operation and holding the composed tree to a bounded cost factor of
// the flat engine serving the same member set. The hierarchy gives up
// some cost optimality for locality; the bound pins how much.
func TestHierMultiDomainChurn(t *testing.T) {
	g, view := tsView(t, topology.DefaultTransitStub(), 7)
	mrouters := view.MRouters()
	const kappa = 2.0
	hier := NewHierDCDM(view, mrouters, 0, kappa)
	flat := NewDCDM(g, mrouters[0], kappa, topology.NewLazyAllPairs(g, topology.ByDelay), topology.NewLazyAllPairs(g, topology.ByCost))

	r := rand.New(rand.NewSource(99))
	on := make(map[topology.NodeID]bool)
	var pool []topology.NodeID
	steps, joins := 600, 0
	for step := 0; step < steps; step++ {
		if len(on) == 0 || r.Intn(3) != 0 {
			v := topology.NodeID(r.Intn(g.N()))
			if on[v] || v == mrouters[0] {
				continue
			}
			hres := hier.Join(v)
			flat.Join(v)
			if hres.Member != v || hres.Domain != view.Domain(v) {
				t.Fatalf("step %d: join result %+v for node %d (domain %d)", step, hres, v, view.Domain(v))
			}
			on[v] = true
			pool = append(pool, v)
			joins++
		} else {
			v := pool[r.Intn(len(pool))]
			if !on[v] {
				continue
			}
			hres := hier.Leave(v)
			flat.Leave(v)
			if hres.Domain != view.Domain(v) {
				t.Fatalf("step %d: leave result %+v", step, hres)
			}
			delete(on, v)
		}
		if err := hier.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, want := hier.Tree().MemberCount(), len(on); got != want {
			t.Fatalf("step %d: composed members %d, want %d", step, got, want)
		}
	}
	if joins < 100 {
		t.Fatalf("churn too shallow: %d joins", joins)
	}
	// Bounded-cost comparison: deterministic seeds make the ratio a
	// fixed number; 3x is far above what the run actually produces and
	// far below "unboundedly worse".
	if fc, hc := flat.Tree().Cost(), hier.Tree().Cost(); hc > 3*fc {
		t.Fatalf("hierarchical cost %g more than 3x flat cost %g", hc, fc)
	}
	// Every active domain's engine must be released once emptied (the
	// core lingers only if it never hosted a member).
	for v := range on {
		hier.Leave(v)
	}
	if hier.ActiveDomains() > 1 {
		t.Fatalf("%d domains still active after all members left", hier.ActiveDomains())
	}
	if got := hier.Tree().MemberCount(); got != 0 {
		t.Fatalf("%d members left on composed tree", got)
	}
}

// TestHierDomainReactivation drains a domain and re-joins through it:
// the splice must re-realize against whatever composed relays remain,
// and the consistency contract must survive the round trip.
func TestHierDomainReactivation(t *testing.T) {
	_, view := tsView(t, topology.DefaultTransitStub(), 5)
	hier := NewHierDCDM(view, view.MRouters(), 0, 1.5)
	// Pick the two highest domains (farthest from the core's transit
	// domain) and churn them through activate/drain/reactivate.
	dA, dB := view.K()-1, view.K()-2
	a0, a1 := view.NodesOf(dA)[0], view.NodesOf(dA)[len(view.NodesOf(dA))-1]
	b0 := view.NodesOf(dB)[0]

	res := hier.Join(a0)
	if !res.Activated || res.SplicePath == nil {
		t.Fatalf("first join in domain %d: %+v", dA, res)
	}
	hier.Join(a1)
	hier.Join(b0)
	if hier.ActiveDomains() != 3 { // core + dA + dB
		t.Fatalf("active domains = %d, want 3", hier.ActiveDomains())
	}
	if r := hier.Leave(a0); r.Deactivated {
		t.Fatalf("leave of first member deactivated a non-empty domain: %+v", r)
	}
	if r := hier.Leave(a1); !r.Deactivated {
		t.Fatalf("last leave did not deactivate: %+v", r)
	}
	if hier.locals[dA] != nil {
		t.Fatal("local tree survives deactivation")
	}
	res = hier.Join(a1)
	if !res.Activated {
		t.Fatalf("rejoin did not reactivate: %+v", res)
	}
	if err := hier.Validate(); err != nil {
		t.Fatal(err)
	}
	if !hier.Tree().IsMember(a1) || !hier.Tree().IsMember(b0) {
		t.Fatal("membership lost across reactivation")
	}
}

// bench10kCfg is the 10k-node transit-stub instance of the domains
// benchmarks: 40 transit nodes, 120 stub domains of 83 nodes.
func bench10kCfg() topology.TransitStubConfig {
	return topology.TransitStubConfig{
		TransitDomains:      5,
		TransitSize:         8,
		StubsPerTransitNode: 3,
		StubSize:            83,
		EdgeProb:            0.4,
	}
}

func benchMembers(n int, g *topology.Graph, exclude topology.NodeID) []topology.NodeID {
	r := rand.New(rand.NewSource(31))
	seen := make(map[topology.NodeID]bool, n)
	out := make([]topology.NodeID, 0, n)
	for len(out) < n {
		v := topology.NodeID(r.Intn(g.N()))
		if v == exclude || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// domainBenchScales is the node-count ladder of the per-join benchmarks
// BenchmarkDomainJoinFlat and BenchmarkDomainJoinHier: fixed 20-node
// stub domains, growing *domain count* — the way the hierarchical
// architecture is meant to scale.
// The sublinearity claim is that the hier join touches O(domain)-sized
// rows and its resident tables cover only the *touched* domains, while
// the flat join touches O(n)-sized rows and tables: ns/join and
// table-bytes grow ~linearly with n under the flat engine and stay
// nearly put under the composer.
func domainBenchScales() []struct {
	name string
	cfg  topology.TransitStubConfig
} {
	mk := func(stubsPerTransit int) topology.TransitStubConfig {
		return topology.TransitStubConfig{
			TransitDomains:      5,
			TransitSize:         8,
			StubsPerTransitNode: stubsPerTransit,
			StubSize:            20,
			EdgeProb:            0.4,
		}
	}
	return []struct {
		name string
		cfg  topology.TransitStubConfig
	}{
		{"n=2440", mk(3)},  // 40 transit + 120 stubs x 20
		{"n=4840", mk(6)},  // 240 stubs
		{"n=9640", mk(12)}, // 480 stubs
	}
}

// BenchmarkDomainJoinFlat / BenchmarkDomainJoinHier are the two per-join
// cost arms: 256 member joins on the transit-stub ladder, flat engine
// (global lazy tables) vs the hierarchical composer (per-domain tables). Timed region: the joins; ns/join and the
// resident table bytes at full membership are reported as metrics.
func BenchmarkDomainJoinFlat(b *testing.B) {
	for _, sc := range domainBenchScales() {
		b.Run(sc.name, func(b *testing.B) {
			g, _, err := topology.TransitStub(sc.cfg, rand.New(rand.NewSource(3)))
			if err != nil {
				b.Fatal(err)
			}
			root := topology.NodeID(0)
			members := benchMembers(256, g, root)
			var tableBytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spDelay := topology.NewLazyAllPairs(g, topology.ByDelay)
				spCost := topology.NewLazyAllPairs(g, topology.ByCost)
				d := NewDCDM(g, root, 2.0, spDelay, spCost)
				for _, m := range members {
					d.Join(m)
				}
				b.StopTimer()
				tableBytes = spDelay.MemoryBytes() + spCost.MemoryBytes()
				for _, m := range members {
					d.Leave(m)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(members))), "ns/join")
			b.ReportMetric(float64(tableBytes), "table-bytes")
		})
	}
}

func BenchmarkDomainJoinHier(b *testing.B) {
	for _, sc := range domainBenchScales() {
		b.Run(sc.name, func(b *testing.B) {
			g, info, err := topology.TransitStub(sc.cfg, rand.New(rand.NewSource(3)))
			if err != nil {
				b.Fatal(err)
			}
			view, err := topology.NewDomainView(g, info.Domain)
			if err != nil {
				b.Fatal(err)
			}
			mrouters := view.MRouters()
			members := benchMembers(256, g, mrouters[0])
			var tableBytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := NewHierDCDM(view, mrouters, 0, 2.0)
				for _, m := range members {
					h.Join(m)
				}
				b.StopTimer()
				tableBytes = h.TableBytes()
				for _, m := range members {
					h.Leave(m)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(members))), "ns/join")
			b.ReportMetric(float64(tableBytes), "table-bytes")
		})
	}
}
