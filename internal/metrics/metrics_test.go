package metrics

import (
	"testing"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

func TestClassSplit(t *testing.T) {
	var c Collector
	c.OnLink(0, 1, packet.Data, 5, 1000)
	c.OnLink(1, 0, packet.EncapData, 2, 1000)
	c.OnLink(1, 2, packet.Join, 3, 64)
	c.OnLink(2, 1, packet.Tree, 4, 128)
	if c.DataOverhead() != 7 {
		t.Fatalf("data overhead = %g, want 7", c.DataOverhead())
	}
	if c.ProtocolOverhead() != 7 {
		t.Fatalf("protocol overhead = %g, want 7", c.ProtocolOverhead())
	}
	if c.DataBytes() != 2000 || c.ProtocolBytes() != 192 {
		t.Fatalf("bytes = %d/%d", c.DataBytes(), c.ProtocolBytes())
	}
	if c.Crossings(packet.Data) != 1 || c.Crossings(packet.Join) != 1 {
		t.Fatal("crossings wrong")
	}
	if c.Crossings(packet.Leave) != 0 {
		t.Fatal("phantom crossing")
	}
}

func TestDelays(t *testing.T) {
	var c Collector
	if c.MeanEndToEndDelay() != 0 || c.MaxEndToEndDelay() != 0 {
		t.Fatal("zero-value delays wrong")
	}
	c.OnDeliver(1)
	c.OnDeliver(3)
	c.OnDrop(packet.Data)
	if c.Delivered() != 2 || c.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", c.Delivered(), c.Dropped())
	}
	if c.MeanEndToEndDelay() != 2 {
		t.Fatalf("mean = %g, want 2", c.MeanEndToEndDelay())
	}
	if c.MaxEndToEndDelay() != 3 {
		t.Fatalf("max = %g, want 3", c.MaxEndToEndDelay())
	}
}

func TestLinkLoad(t *testing.T) {
	var c Collector
	c.OnLink(0, 1, packet.Data, 1, 1)
	c.OnLink(1, 0, packet.Data, 1, 1) // both directions count once per link
	c.OnLink(1, 2, packet.Join, 1, 1)
	if c.LinkLoad(0, 1) != 2 || c.LinkLoad(1, 0) != 2 {
		t.Fatalf("LinkLoad(0,1) = %d, want 2", c.LinkLoad(0, 1))
	}
	if c.LinkLoad(0, 2) != 0 {
		t.Fatal("phantom load")
	}
	id, n := c.MaxLinkLoad()
	if id != MkLinkID(1, 0) || n != 2 {
		t.Fatalf("MaxLinkLoad = %v/%d", id, n)
	}
	if c.NodeLoad(1) != 3 {
		t.Fatalf("NodeLoad(1) = %d, want 3", c.NodeLoad(1))
	}
	if c.NodeLoad(0) != 2 || c.NodeLoad(2) != 1 {
		t.Fatalf("NodeLoad = %d/%d", c.NodeLoad(0), c.NodeLoad(2))
	}
}

func TestDropSplit(t *testing.T) {
	var c Collector
	c.OnDrop(packet.Data)
	c.OnDrop(packet.EncapData)
	c.OnDrop(packet.Tree)
	c.OnDrop(packet.Tree)
	c.OnDrop(packet.Join)
	if c.Dropped() != 2 {
		t.Fatalf("data drops = %d, want 2", c.Dropped())
	}
	if c.DroppedControl() != 3 {
		t.Fatalf("control drops = %d, want 3", c.DroppedControl())
	}
	if c.DroppedByKind(packet.Tree) != 2 || c.DroppedByKind(packet.Join) != 1 {
		t.Fatalf("per-kind drops wrong: tree=%d join=%d",
			c.DroppedByKind(packet.Tree), c.DroppedByKind(packet.Join))
	}
	if c.DroppedByKind(packet.Leave) != 0 {
		t.Fatal("phantom drop")
	}
	kinds := c.DropKinds()
	want := []packet.Kind{packet.Data, packet.EncapData, packet.Join, packet.Tree}
	if len(kinds) != len(want) {
		t.Fatalf("DropKinds = %v", kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("DropKinds = %v, want %v", kinds, want)
		}
	}
}

func TestRecovery(t *testing.T) {
	var c Collector
	if c.MeanRecovery() != 0 || c.MaxRecovery() != 0 || c.Recoveries() != 0 {
		t.Fatal("zero-value recovery stats wrong")
	}
	c.OnRecovery(1)
	c.OnRecovery(3)
	if c.Recoveries() != 2 || c.MeanRecovery() != 2 || c.MaxRecovery() != 3 {
		t.Fatalf("recoveries=%d mean=%g max=%g",
			c.Recoveries(), c.MeanRecovery(), c.MaxRecovery())
	}
}

func TestMaxLinkLoadEmpty(t *testing.T) {
	var c Collector
	id, n := c.MaxLinkLoad()
	if n != 0 || id != (LinkID{}) {
		t.Fatalf("empty MaxLinkLoad = %v/%d", id, n)
	}
}

func TestMkLinkIDNormalises(t *testing.T) {
	if MkLinkID(5, 2) != MkLinkID(2, 5) {
		t.Fatal("link id not normalised")
	}
}

func TestReset(t *testing.T) {
	var c Collector
	c.OnLink(0, 1, packet.Data, 5, 10)
	c.OnDeliver(2)
	c.Reset()
	if c.DataOverhead() != 0 || c.Delivered() != 0 || c.MaxEndToEndDelay() != 0 {
		t.Fatal("reset incomplete")
	}
	c.OnLink(0, 1, packet.Join, 1, 1) // maps must be rebuilt after reset
	if c.Crossings(packet.Join) != 1 {
		t.Fatal("collector unusable after Reset")
	}

	// A dense-registered collector keeps its registration across Reset,
	// with the loads zeroed: a live network goes on reporting by index.
	var d Collector
	d.UseDenseLinks([]LinkID{MkLinkID(0, 1), MkLinkID(1, 2)})
	d.OnLinkDense(0, packet.Data, 5, 10)
	d.OnLinkDense(1, packet.Data, 5, 10)
	d.Reset()
	if d.LinkLoad(0, 1) != 0 || d.LinkLoad(1, 2) != 0 || d.DataOverhead() != 0 {
		t.Fatal("dense reset incomplete")
	}
	d.OnLinkDense(1, packet.Data, 3, 10)
	if id, n := d.MaxLinkLoad(); id != MkLinkID(1, 2) || n != 1 || d.DataOverhead() != 3 {
		t.Fatalf("after dense Reset: MaxLinkLoad = %v/%d, overhead %g", id, n, d.DataOverhead())
	}
}

// The dense per-link fast path must account identically to the
// map-keyed OnLink path: every crossing replayed through both stores
// yields the same totals, per-kind counts, link loads and node loads.
func TestDensePathMatchesMapAccounting(t *testing.T) {
	type crossing struct {
		u, v  topology.NodeID
		kind  packet.Kind
		cost  float64
		bytes int
	}
	crossings := []crossing{
		{0, 1, packet.Data, 5, 1000},
		{1, 0, packet.Data, 5, 1000}, // reverse direction, same link
		{1, 2, packet.Tree, 3, 128},
		{2, 3, packet.Join, 2, 64},
		{1, 2, packet.EncapData, 3, 1000},
		{0, 1, packet.Prune, 5, 64},
		{2, 3, packet.Data, 2, 500},
	}
	links := []LinkID{MkLinkID(0, 1), MkLinkID(1, 2), MkLinkID(2, 3)}

	var byMap, byDense Collector
	byDense.UseDenseLinks(links)
	uid := map[LinkID]int32{}
	for i, id := range links {
		uid[id] = int32(i)
	}
	for _, x := range crossings {
		byMap.OnLink(x.u, x.v, x.kind, x.cost, x.bytes)
		byDense.OnLinkDense(uid[MkLinkID(x.u, x.v)], x.kind, x.cost, x.bytes)
	}

	if byMap.DataOverhead() != byDense.DataOverhead() ||
		byMap.ProtocolOverhead() != byDense.ProtocolOverhead() {
		t.Fatalf("overhead mismatch: map %g/%g dense %g/%g",
			byMap.DataOverhead(), byMap.ProtocolOverhead(),
			byDense.DataOverhead(), byDense.ProtocolOverhead())
	}
	if byMap.DataBytes() != byDense.DataBytes() || byMap.ProtocolBytes() != byDense.ProtocolBytes() {
		t.Fatal("byte totals mismatch")
	}
	for k := 0; k < packet.NumKinds; k++ {
		if byMap.Crossings(packet.Kind(k)) != byDense.Crossings(packet.Kind(k)) {
			t.Fatalf("crossings(%v) mismatch", packet.Kind(k))
		}
	}
	for _, id := range links {
		if byMap.LinkLoad(id.A, id.B) != byDense.LinkLoad(id.A, id.B) {
			t.Fatalf("link load mismatch on %v", id)
		}
	}
	for v := topology.NodeID(0); v < 4; v++ {
		if byMap.NodeLoad(v) != byDense.NodeLoad(v) {
			t.Fatalf("node load mismatch at %d", v)
		}
	}
	idM, nM := byMap.MaxLinkLoad()
	idD, nD := byDense.MaxLinkLoad()
	if idM != idD || nM != nD {
		t.Fatalf("max link load mismatch: map %v/%d dense %v/%d", idM, nM, idD, nD)
	}
}

// A collector fed through both paths at once (the mixed case: the fast
// data plane counts densely while a test harness calls OnLink) merges
// the stores in every accessor.
func TestMixedDenseAndMapStores(t *testing.T) {
	var c Collector
	c.UseDenseLinks([]LinkID{MkLinkID(0, 1)})
	c.OnLinkDense(0, packet.Data, 1, 100)
	c.OnLink(0, 1, packet.Data, 1, 100)
	c.OnLink(1, 2, packet.Data, 1, 100)
	if got := c.LinkLoad(0, 1); got != 2 {
		t.Fatalf("merged LinkLoad(0,1) = %d, want 2", got)
	}
	if got := c.NodeLoad(1); got != 3 {
		t.Fatalf("merged NodeLoad(1) = %d, want 3", got)
	}
	if id, n := c.MaxLinkLoad(); id != MkLinkID(0, 1) || n != 2 {
		t.Fatalf("merged MaxLinkLoad = %v/%d", id, n)
	}
}

func TestUseDenseLinksTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double registration")
		}
	}()
	var c Collector
	c.UseDenseLinks([]LinkID{MkLinkID(0, 1)})
	c.UseDenseLinks([]LinkID{MkLinkID(0, 1)})
}
