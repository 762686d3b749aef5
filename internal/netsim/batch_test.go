package netsim

import (
	"slices"
	"testing"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// batchRec extends churnRec with the BatchLeaver extension, recording
// each batch it receives.
type batchRec struct {
	churnRec
	batches [][]topology.NodeID
}

func (p *batchRec) HostLeaveBatch(nodes []topology.NodeID, g packet.GroupID) {
	p.batches = append(p.batches, slices.Clone(nodes))
	for _, v := range nodes {
		p.log = append(p.log, churnEv{false, v, p.net.Now()})
	}
}

// Without the BatchLeaver extension, HostLeaveBatch must fall back to
// sequential HostLeave dispatch in batch order, after clearing the
// whole batch from ground truth.
func TestHostLeaveBatchFallback(t *testing.T) {
	p := &churnRec{}
	n := New(lineGraph(5), p)
	for _, v := range []topology.NodeID{1, 2, 3} {
		n.HostJoin(v, 7)
	}
	p.log = nil
	n.HostLeaveBatch([]topology.NodeID{3, 1}, 7)
	want := []churnEv{{false, 3, 0}, {false, 1, 0}}
	if !slices.Equal(p.log, want) {
		t.Fatalf("fallback dispatch %v, want sequential leaves %v", p.log, want)
	}
	if got := n.Members(7); !slices.Equal(got, []topology.NodeID{2}) {
		t.Fatalf("ground truth after batch: %v, want [2]", got)
	}
}

// With the extension, the protocol receives one call carrying the whole
// batch; a singleton batch stays on the plain HostLeave path.
func TestHostLeaveBatchDispatch(t *testing.T) {
	p := &batchRec{}
	n := New(lineGraph(5), p)
	for _, v := range []topology.NodeID{1, 2, 3} {
		n.HostJoin(v, 7)
	}
	n.HostLeaveBatch([]topology.NodeID{1, 3}, 7)
	if len(p.batches) != 1 || !slices.Equal(p.batches[0], []topology.NodeID{1, 3}) {
		t.Fatalf("batches = %v, want one batch [1 3]", p.batches)
	}
	n.HostLeaveBatch([]topology.NodeID{2}, 7)
	if len(p.batches) != 1 {
		t.Fatalf("singleton batch should dispatch as a plain HostLeave, got %v", p.batches)
	}
	if got := n.Members(7); len(got) != 0 {
		t.Fatalf("ground truth after batches: %v, want empty", got)
	}
}

// dispatchChurn must fire a tick's joins individually, in run order,
// and collapse maximal consecutive leave runs into single batches.
func TestDispatchChurnTickCoalescing(t *testing.T) {
	p := &batchRec{}
	n := New(lineGraph(8), p)
	for _, v := range []topology.NodeID{1, 2, 3, 4, 5} {
		n.HostJoin(v, 7)
	}
	p.log = nil
	run := []churnEvent{
		{member: 1, join: false},
		{member: 2, join: false},
		{member: 6, join: true},
		{member: 3, join: false},
		{member: 4, join: false},
		{member: 5, join: false},
	}
	n.dispatchChurn(&Churn{plan: ChurnPlan{Group: 7}, evs: run}, 0, len(run))
	wantLog := []churnEv{
		{false, 1, 0}, {false, 2, 0},
		{true, 6, 0},
		{false, 3, 0}, {false, 4, 0}, {false, 5, 0},
	}
	if !slices.Equal(p.log, wantLog) {
		t.Fatalf("dispatch order %v, want %v", p.log, wantLog)
	}
	wantBatches := [][]topology.NodeID{{1, 2}, {3, 4, 5}}
	if len(p.batches) != 2 || !slices.Equal(p.batches[0], wantBatches[0]) || !slices.Equal(p.batches[1], wantBatches[1]) {
		t.Fatalf("batches %v, want %v", p.batches, wantBatches)
	}
	if got := n.Members(7); !slices.Equal(got, []topology.NodeID{6}) {
		t.Fatalf("ground truth after tick: %v, want [6]", got)
	}
}
