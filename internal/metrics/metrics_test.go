package metrics

import (
	"testing"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// onLink reports one crossing of the registered link {u,v}.
func onLink(c *Collector, u, v topology.NodeID, kind packet.Kind, cost float64, bytes int) {
	i, ok := c.denseIdx[MkLinkID(u, v)]
	if !ok {
		panic("link not registered")
	}
	c.OnLinkDense(i, kind, cost, bytes)
}

func TestClassSplit(t *testing.T) {
	var c Collector
	c.UseDenseLinks([]LinkID{MkLinkID(0, 1), MkLinkID(1, 2)})
	onLink(&c, 0, 1, packet.Data, 5, 1000)
	onLink(&c, 1, 0, packet.EncapData, 2, 1000)
	onLink(&c, 1, 2, packet.Join, 3, 64)
	onLink(&c, 2, 1, packet.Tree, 4, 128)
	if c.DataOverhead() != 7 {
		t.Fatalf("data overhead = %g, want 7", c.DataOverhead())
	}
	if c.ProtocolOverhead() != 7 {
		t.Fatalf("protocol overhead = %g, want 7", c.ProtocolOverhead())
	}
	if c.ProtocolBytes() != 192 {
		t.Fatalf("protocol bytes = %d, want 192", c.ProtocolBytes())
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
	if c.MaxEndToEndDelay() != 0 {
		t.Fatal("zero-value delays wrong")
	}
	c.OnDeliver(1)
	c.OnDeliver(3)
	c.OnDrop(packet.Data)
	if c.Delivered() != 2 || c.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", c.Delivered(), c.Dropped())
	}
	if c.MaxEndToEndDelay() != 3 {
		t.Fatalf("max = %g, want 3", c.MaxEndToEndDelay())
	}
}

func TestLinkLoad(t *testing.T) {
	var c Collector
	// Registered out of LinkID order, so the tie below is not decided by
	// scan order.
	c.UseDenseLinks([]LinkID{MkLinkID(1, 2), MkLinkID(0, 1)})
	onLink(&c, 0, 1, packet.Data, 1, 1)
	onLink(&c, 1, 0, packet.Data, 1, 1) // both directions count once per link
	onLink(&c, 1, 2, packet.Join, 1, 1)
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
	onLink(&c, 2, 1, packet.Data, 1, 1)
	if id, n := c.MaxLinkLoad(); id != MkLinkID(0, 1) || n != 2 {
		t.Fatalf("tied MaxLinkLoad = %v/%d, want the smaller link", id, n)
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
	c.OnDeliver(2)
	c.OnDrop(packet.Join)
	c.Reset()
	if c.Delivered() != 0 || c.MaxEndToEndDelay() != 0 || c.DroppedControl() != 0 {
		t.Fatal("reset incomplete")
	}

	// The link registration survives Reset, with the loads zeroed: a
	// live network goes on reporting by index.
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
