package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/runner"
	"scmp/internal/topology"
)

// TestStudiesRetainNoRoutingTables: the tree studies' routing tables
// live as long as their shard. After Fig. 7 and fig7x the live heap is
// back where it started, within 1 MB (the process-wide table cache this
// replaced kept 17.8 MB alive here). Not parallel: it reads the whole
// heap.
func TestStudiesRetainNoRoutingTables(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fig7, fig7x := DefaultFig7(), DefaultFig7x()
	fig7.Parallel, fig7x.Parallel = 1, 1
	RunFig7(fig7)
	RunFig7x(fig7x)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("live heap grew by %.1f MB over Fig. 7 and fig7x", float64(grew)/(1<<20))
	}
}

// doubleDeliver is a protocol that hands every data packet it delivers
// to a member up a second time.
type doubleDeliver struct {
	netsim.Protocol
	n *netsim.Network
}

func (d *doubleDeliver) Attach(n *netsim.Network) {
	d.n = n
	d.Protocol.Attach(n)
}

func (d *doubleDeliver) HandlePacket(node topology.NodeID, pkt *netsim.Packet) {
	d.Protocol.HandlePacket(node, pkt)
	if pkt.Kind == packet.Data && d.n.IsMember(node, pkt.Group) {
		d.n.DeliverLocal(node, pkt)
	}
}

// TestFig89FailsOnDuplicateDelivery: Figs. 8/9 run fault-free, so a
// protocol that delivers a packet twice fails the sweep, naming the run
// and the packet, instead of passing with every member reached.
func TestFig89FailsOnDuplicateDelivery(t *testing.T) {
	mospf := protocolBuilders["MOSPF"]
	protocolBuilders["MOSPF"] = func(center topology.NodeID, prune des.Time) netsim.Protocol {
		return &doubleDeliver{Protocol: mospf(center, prune)}
	}
	defer func() { protocolBuilders["MOSPF"] = mospf }()

	cfg := DefaultFig89()
	cfg.GroupSizes, cfg.Seeds, cfg.SimTime, cfg.Topologies, cfg.Parallel = []int{8}, 1, 3, []string{TopoArpanet}, 1
	defer func() {
		jp, ok := recover().(runner.JobPanic)
		if msg := fmt.Sprint(jp.Value); !ok || !strings.Contains(msg, "ARPANET size 8 MOSPF: data packet 1 ") {
			t.Fatalf("RunFig89 with a double-delivering MOSPF: recovered %v", jp)
		}
	}()
	RunFig89(cfg)
}
