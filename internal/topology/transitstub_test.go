package topology

import (
	"testing"
	"testing/quick"

	"scmp/internal/rng"
)

func TestTransitStubDefaultShape(t *testing.T) {
	rng := rng.New(1)
	g, info, err := TransitStub(DefaultTransitStub(), rng)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 4*4 + 4*4*2*3
	if g.N() != wantN {
		t.Fatalf("N = %d, want %d", g.N(), wantN)
	}
	if !g.Connected() {
		t.Fatal("transit-stub graph disconnected")
	}
	transit := info.TransitNodes()
	if len(transit) != 16 {
		t.Fatalf("transit nodes = %d, want 16", len(transit))
	}
	for _, v := range transit {
		if info.Attachment[v] != -1 {
			t.Fatalf("transit node %d has an attachment", v)
		}
	}
}

func TestTransitStubHierarchy(t *testing.T) {
	rng := rng.New(2)
	cfg := DefaultTransitStub()
	g, info, err := TransitStub(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if info.Roles[v] != RoleStub {
			continue
		}
		anchor := info.Attachment[v]
		if anchor < 0 || info.Roles[anchor] != RoleTransit {
			t.Fatalf("stub %d anchored to %d (role %v)", v, anchor, info.Roles[anchor])
		}
		// Stub nodes never link directly into another domain except via
		// their own gateway edge to the anchor transit node.
		for _, l := range g.Neighbors(NodeID(v)) {
			sameDomain := info.Domain[l.To] == info.Domain[v]
			isAnchor := l.To == anchor
			if !sameDomain && !isAnchor {
				t.Fatalf("stub %d has a foreign link to %d", v, l.To)
			}
		}
	}
}

func TestTransitStubCostBands(t *testing.T) {
	rng := rng.New(3)
	g, info, err := TransitStub(DefaultTransitStub(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for _, l := range g.Neighbors(NodeID(u)) {
			if NodeID(u) > l.To {
				continue
			}
			v := l.To
			var lo, hi float64
			switch {
			case info.Roles[u] == RoleTransit && info.Roles[v] == RoleTransit && info.Domain[u] != info.Domain[v]:
				lo, hi = tsInterTransitCost, tsInterTransitCost*tsCostSpread
			case info.Roles[u] == RoleTransit && info.Roles[v] == RoleTransit:
				lo, hi = tsIntraTransitCost, tsIntraTransitCost*tsCostSpread
			case info.Roles[u] != info.Roles[v]:
				lo, hi = tsTransitStubCost, tsTransitStubCost*tsCostSpread
			default:
				lo, hi = tsIntraStubCost, tsIntraStubCost*tsCostSpread
			}
			if l.Cost < lo || l.Cost >= hi {
				t.Fatalf("edge %d-%d cost %g outside band [%g, %g)", u, v, l.Cost, lo, hi)
			}
			if l.Delay <= 0 || l.Delay > l.Cost {
				t.Fatalf("edge %d-%d delay %g outside (0, cost]", u, v, l.Delay)
			}
		}
	}
}

func TestTransitStubBadConfig(t *testing.T) {
	rng := rng.New(1)
	bad := []TransitStubConfig{
		{TransitDomains: 0, TransitSize: 1, StubSize: 1},
		{TransitDomains: 1, TransitSize: 0, StubSize: 1},
		{TransitDomains: 1, TransitSize: 1, StubSize: 0},
		{TransitDomains: 1, TransitSize: 1, StubsPerTransitNode: -1, StubSize: 1},
	}
	for _, cfg := range bad {
		if _, _, err := TransitStub(cfg, rng); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestTransitStubNoStubs(t *testing.T) {
	rng := rng.New(4)
	cfg := TransitStubConfig{TransitDomains: 2, TransitSize: 3, StubsPerTransitNode: 0, StubSize: 1}
	g, info, err := TransitStub(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 || len(info.TransitNodes()) != 6 {
		t.Fatalf("N=%d transit=%d", g.N(), len(info.TransitNodes()))
	}
	if !g.Connected() {
		t.Fatal("backbone-only graph disconnected")
	}
}

// Property: the generator always produces a connected graph with a
// consistent hierarchy, across random configurations.
func TestPropertyTransitStubInvariants(t *testing.T) {
	f := func(seed int64, td, ts, spt, ss uint8) bool {
		cfg := TransitStubConfig{
			TransitDomains:      1 + int(td)%4,
			TransitSize:         1 + int(ts)%4,
			StubsPerTransitNode: int(spt) % 3,
			StubSize:            1 + int(ss)%4,
		}
		rng := rng.New(seed)
		g, info, err := TransitStub(cfg, rng)
		if err != nil {
			return false
		}
		if !g.Connected() {
			return false
		}
		transitCount := 0
		for v := 0; v < g.N(); v++ {
			switch info.Roles[v] {
			case RoleTransit:
				transitCount++
				if info.Attachment[v] != -1 {
					return false
				}
			case RoleStub:
				a := info.Attachment[v]
				if a < 0 || info.Roles[a] != RoleTransit {
					return false
				}
			}
		}
		return transitCount == cfg.TransitDomains*cfg.TransitSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
