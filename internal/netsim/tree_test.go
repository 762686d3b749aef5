package netsim

import (
	"reflect"
	"testing"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// TestTreeEntryDownstreamSet: the downstream set is ascending and
// duplicate-free whatever order its input arrives in, add and remove are
// idempotent, and SetDownstream copies rather than aliasing its input.
func TestTreeEntryDownstreamSet(t *testing.T) {
	e := TreeEntry{Upstream: NoUpstream}
	in := []topology.NodeID{9, 3, 7, 3, 1, 9}
	e.SetDownstream(in)
	want := []topology.NodeID{1, 3, 7, 9}
	if !reflect.DeepEqual(e.Downstream(), want) {
		t.Fatalf("SetDownstream(%v) = %v, want %v", in, e.Downstream(), want)
	}
	in[0] = 42
	if !reflect.DeepEqual(e.Downstream(), want) {
		t.Fatal("the set aliases the slice it was given")
	}
	for _, step := range []struct {
		add  bool
		v    topology.NodeID
		want []topology.NodeID
	}{
		{true, 5, []topology.NodeID{1, 3, 5, 7, 9}},
		{true, 5, []topology.NodeID{1, 3, 5, 7, 9}},
		{true, 0, []topology.NodeID{0, 1, 3, 5, 7, 9}},
		{false, 3, []topology.NodeID{0, 1, 5, 7, 9}},
		{false, 3, []topology.NodeID{0, 1, 5, 7, 9}},
		{false, 4, []topology.NodeID{0, 1, 5, 7, 9}},
	} {
		if step.add {
			e.AddDownstream(step.v)
		} else {
			e.RemoveDownstream(step.v)
		}
		if !reflect.DeepEqual(e.Downstream(), step.want) {
			t.Fatalf("after add=%v %d: %v, want %v", step.add, step.v, e.Downstream(), step.want)
		}
	}
	e.SetDownstream(nil)
	if len(e.Downstream()) != 0 {
		t.Fatalf("cleared set = %v", e.Downstream())
	}
}

// TestTreeEntryAccepts pins the §III-F check: only an on-tree entry
// accepts, and only from its upstream or a child.
func TestTreeEntryAccepts(t *testing.T) {
	e := TreeEntry{Upstream: 2}
	e.SetDownstream([]topology.NodeID{4, 6})
	for _, from := range []topology.NodeID{2, 4, 6} {
		if e.Accepts(from) {
			t.Fatalf("off-tree entry accepted a packet from %d", from)
		}
	}
	e.OnTree = true
	for from, want := range map[topology.NodeID]bool{2: true, 4: true, 6: true, 3: false, 5: false, NoUpstream: false} {
		if got := e.Accepts(from); got != want {
			t.Errorf("Accepts(%d) = %v, want %v", from, got, want)
		}
	}
	e.Upstream = NoUpstream
	if e.Accepts(2) {
		t.Error("the root accepted a packet from its former upstream")
	}
}

// TestTreeEntryForwardFollowsChanges: Forward sends by cached arcs, so
// every way the entry changes — each child mutator and a direct write to
// Upstream — must be followed by exactly the crossings a freshly built
// entry with the same state makes.
func TestTreeEntryForwardFollowsChanges(t *testing.T) {
	// A wheel: hub 0 is adjacent to every rim router 1..6.
	g := topology.New(7)
	for v := 1; v < 7; v++ {
		g.MustAddEdge(0, topology.NodeID(v), 1, 1)
	}
	n := New(g, &echoProto{})
	var crossed [][2]topology.NodeID
	n.Trace = func(from, to topology.NodeID, _ *Packet) {
		crossed = append(crossed, [2]topology.NodeID{from, to})
	}
	forward := func(e *TreeEntry, except topology.NodeID) [][2]topology.NodeID {
		crossed = nil
		e.Forward(n, 0, &Packet{Kind: packet.Data, Size: 1}, except)
		n.Run()
		return crossed
	}
	e := TreeEntry{Upstream: 3}
	e.SetDownstream([]topology.NodeID{1, 5})
	for _, step := range []struct {
		name   string
		change func()
	}{
		{"initial", func() {}},
		{"AddDownstream(6)", func() { e.AddDownstream(6) }},
		{"RemoveDownstream(1)", func() { e.RemoveDownstream(1) }},
		{"SetDownstream({2,4})", func() { e.SetDownstream([]topology.NodeID{4, 2}) }},
		{"Upstream = 6", func() { e.Upstream = 6 }},
		{"Upstream = NoUpstream", func() { e.Upstream = NoUpstream }},
	} {
		step.change()
		fresh := TreeEntry{Upstream: e.Upstream}
		fresh.SetDownstream(e.Downstream())
		excepts := []topology.NodeID{NoUpstream, e.Upstream}
		if d := e.Downstream(); len(d) > 0 {
			excepts = append(excepts, d[0])
		}
		for _, except := range excepts {
			got, want := forward(&e, except), forward(&fresh, except)
			if len(want) == 0 {
				t.Fatalf("%s: the fresh entry crossed nothing", step.name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, except %d: crossed %v, a fresh entry crosses %v", step.name, except, got, want)
			}
		}
	}
}
