package dvmrp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

const grp packet.GroupID = 1

func lineGraph(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), 1, 1)
	}
	return g
}

func TestFloodReachesMembers(t *testing.T) {
	n := netsim.New(lineGraph(4), New(0))
	n.HostJoin(3, grp)
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestFirstPacketFloodsEverywhere(t *testing.T) {
	// Ring of 6: the first packet must cross many links even with a
	// single member right next to the source.
	g := topology.New(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID((i+1)%6), 1, 1)
	}
	n := netsim.New(g, New(0))
	n.HostJoin(1, grp)
	n.SendData(0, grp, 100)
	n.Run()
	// Every router is reached by the truncated broadcast, so data
	// crossings far exceed the 1 link a tree would use.
	if n.Metrics.Crossings(packet.Data) < 5 {
		t.Fatalf("data crossings = %d, expected a flood", n.Metrics.Crossings(packet.Data))
	}
	if n.Metrics.Crossings(packet.DvmrpPrune) == 0 {
		t.Fatal("no prunes after flood")
	}
}

func TestPruneSuppressesSecondFlood(t *testing.T) {
	n := netsim.New(lineGraph(5), New(100 /* long prune lifetime */))
	n.HostJoin(1, grp)
	n.SendData(0, grp, 100)
	n.Run()
	first := n.Metrics.Crossings(packet.Data)
	seq := n.SendData(0, grp, 100)
	n.Run()
	second := n.Metrics.Crossings(packet.Data) - first
	if second >= first {
		t.Fatalf("second send crossed %d links, first %d: prunes ineffective", second, first)
	}
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

func TestPruneExpiryRefloods(t *testing.T) {
	p := New(10) // prunes live 10 s
	n := netsim.New(lineGraph(5), p)
	n.HostJoin(1, grp)
	n.SendData(0, grp, 100)
	n.Run()
	base := n.Metrics.Crossings(packet.Data)

	// Within the lifetime: pruned.
	n.SendData(0, grp, 100)
	n.Run()
	inLife := n.Metrics.Crossings(packet.Data) - base

	// After expiry: floods again.
	n.InstallScript([]netsim.Step{{At: n.Now() + 50, Node: 0, Arg: 100, Group: grp, Kind: netsim.Send}})
	n.Run()
	afterLife := n.Metrics.Crossings(packet.Data) - base - inLife
	if afterLife <= inLife {
		t.Fatalf("after expiry crossed %d links vs %d pruned: no re-flood", afterLife, inLife)
	}
}

func TestGraftRestoresDelivery(t *testing.T) {
	p := New(1000)
	n := netsim.New(lineGraph(4), p)
	n.HostJoin(1, grp)
	n.SendData(0, grp, 100) // prunes the 2-3 tail
	n.Run()
	n.HostJoin(3, grp) // graft must reopen the pruned tail
	n.Run()
	if n.Metrics.Crossings(packet.DvmrpGraft) == 0 {
		t.Fatal("no graft sent")
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestTruncatedBroadcastOnCycle(t *testing.T) {
	// Square: 0-1, 1-3, 0-2, 2-3. The truncated broadcast follows the
	// RPF tree (0->1->3 and 0->2): member 3 delivers exactly once, and
	// the dead branch through 2 prunes itself.
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 3, 1, 1)
	g.MustAddEdge(0, 2, 2, 1)
	g.MustAddEdge(2, 3, 2, 1)
	n := netsim.New(g, New(0))
	n.HostJoin(3, grp)
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if n.Metrics.Crossings(packet.DvmrpPrune) == 0 {
		t.Fatal("non-member branch through 2 did not prune")
	}
}

func TestLeaveThenPruneLazily(t *testing.T) {
	p := New(1000)
	n := netsim.New(lineGraph(3), p)
	n.HostJoin(2, grp)
	n.SendData(0, grp, 100)
	n.Run()
	n.HostLeave(2, grp)
	n.SendData(0, grp, 100) // this packet reaches 2, which now prunes
	n.Run()
	pruneCount := n.Metrics.Crossings(packet.DvmrpPrune)
	if pruneCount == 0 {
		t.Fatal("no prune after leave")
	}
	// Prunes propagate lazily: the third packet still reaches router 1,
	// which only then notices it is a fully-pruned non-member and prunes
	// itself upstream.
	before := n.Metrics.Crossings(packet.Data)
	n.SendData(0, grp, 100)
	n.Run()
	if got := n.Metrics.Crossings(packet.Data) - before; got != 1 {
		t.Fatalf("third send crossed %d links, want 1 (lazy prune)", got)
	}
	before = n.Metrics.Crossings(packet.Data)
	n.SendData(0, grp, 100)
	n.Run()
	if got := n.Metrics.Crossings(packet.Data) - before; got != 0 {
		t.Fatalf("fourth send crossed %d links, want 0 (fully pruned)", got)
	}
}

func TestNameAndState(t *testing.T) {
	p := New(0)
	if p.Name() != "DVMRP" {
		t.Fatal("name wrong")
	}
	n := netsim.New(lineGraph(4), p)
	n.HostJoin(1, grp)
	n.SendData(0, grp, 100) // instantiates prune state at 2 and 3
	n.Run()
	if got := p.StateEntries(1); got != 1 {
		t.Fatalf("member state = %d, want 1", got)
	}
	if got := p.StateEntries(3); got == 0 {
		t.Fatal("pruned leaf holds no state")
	}
	if got := p.StateEntries(0); got != 0 {
		t.Fatalf("source state = %d, want 0", got)
	}
}

func TestGraftPropagatesThroughChain(t *testing.T) {
	// Line 0-1-2-3-4: member at 1 prunes the whole tail 2-3-4. A new
	// member at 4 must graft hop by hop back to the live tree.
	p := New(1000)
	n := netsim.New(lineGraph(5), p)
	n.HostJoin(1, grp)
	for i := 0; i < 4; i++ { // converge prunes along the tail
		n.SendData(0, grp, 100)
		n.Run()
	}
	before := n.Metrics.Crossings(packet.Data)
	n.SendData(0, grp, 100)
	n.Run()
	if got := n.Metrics.Crossings(packet.Data) - before; got != 1 {
		t.Fatalf("steady state crossings = %d, want 1", got)
	}
	n.HostJoin(4, grp)
	n.Run()
	// Grafts travelled 4 -> 3 -> 2 -> 1 (each hop had sent a prune).
	if got := n.Metrics.Crossings(packet.DvmrpGraft); got != 3 {
		t.Fatalf("graft crossings = %d, want 3", got)
	}
	seq := n.SendData(0, grp, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestSourceOwnPacketDropped(t *testing.T) {
	// A data packet arriving back at its source is dropped (cycle guard).
	g := topology.New(3)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(2, 0, 3, 1)
	p := New(0)
	n := netsim.New(g, p)
	n.HostJoin(1, grp)
	n.SendData(0, grp, 100)
	n.Run()
	if n.Metrics.Dropped() == 0 {
		t.Fatal("no drops recorded on the cycle")
	}
}

// Property: on random topologies with random members, every member
// receives every packet exactly once, whatever the prune state.
func TestPropertyDVMRPDelivery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Random(topology.DefaultRandom(15, 3), rng)
		if err != nil {
			return false
		}
		n := netsim.New(g, New(5))
		src := topology.NodeID(rng.Intn(g.N()))
		members := map[topology.NodeID]bool{}
		for _, v := range rng.Perm(g.N())[:5] {
			n.HostJoin(topology.NodeID(v), grp)
			members[topology.NodeID(v)] = true
		}
		for i := 0; i < 4; i++ {
			seq := n.SendData(src, grp, 100)
			n.Run()
			missing, anomalous := n.CheckDelivery(seq)
			if len(missing) != 0 || len(anomalous) != 0 {
				t.Logf("seed %d round %d: missing=%v anomalous=%v", seed, i, missing, anomalous)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStateEntriesLifecycle pins what StateEntries counts on the line
// 0-1-2-3 with source 0 and a member at 1: a prune timer counts for its
// (source, group) pair even after it expires, until a graft deletes it;
// a graft clears the sent-prune marker it passes; a leave removes the
// local membership record.
func TestStateEntriesLifecycle(t *testing.T) {
	p := New(10)
	n := netsim.New(lineGraph(4), p)
	want := func(step string, counts ...int) {
		t.Helper()
		for v, w := range counts {
			if got := p.StateEntries(topology.NodeID(v)); got != w {
				t.Fatalf("%s: router %d holds %d state entries, want %d", step, v, got, w)
			}
		}
	}
	n.HostJoin(1, grp)
	want("member joined", 0, 1, 0, 0)
	n.SendData(0, grp, 100) // 3 prunes itself to 2
	n.Run()
	want("first packet", 0, 1, 1, 1)
	n.SendData(0, grp, 100) // 2, now without downstream, prunes itself to 1
	n.Run()
	want("second packet", 0, 2, 1, 1)

	n.RunUntil(n.Now() + 20) // every prune timer has expired
	want("prunes expired", 0, 2, 1, 1)

	n.HostJoin(3, grp) // grafts 3 -> 2 -> 1
	n.Run()
	if got := n.Metrics.Crossings(packet.DvmrpGraft); got != 2 {
		t.Fatalf("graft crossings = %d, want 2", got)
	}
	// 1 keeps only its membership; 2's prune timer and marker are gone;
	// 3's marker gave way to its membership.
	want("grafted", 0, 1, 0, 1)

	n.HostLeave(1, grp)
	want("member 1 left", 0, 0, 0, 1)
}

// TestLazyRPFAfterLinkDown pins that the RPF check reads the network's
// current routing store: on a square whose fast side 0-1-2 loses its
// {1,2} link, once the old prunes expire the flood from 0 reaches member
// 2 over the slow side 0-3-2, and 2 accepts it there instead of dropping
// it as a non-RPF copy.
func TestLazyRPFAfterLinkDown(t *testing.T) {
	g := topology.New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(0, 3, 2, 2)
	g.MustAddEdge(3, 2, 2, 2)
	n := netsim.New(g, New(10))
	f := n.InstallFaults(netsim.FaultPlan{})
	n.HostJoin(2, grp)
	send := func(when string) {
		t.Helper()
		seq := n.SendData(0, grp, 100)
		n.Run()
		if missing, anomalous := n.CheckDelivery(seq); len(missing) != 0 || len(anomalous) != 0 {
			t.Fatalf("%s: missing=%v anomalous=%v", when, missing, anomalous)
		}
	}
	send("before the cut")
	send("pruned, before the cut")
	f.ScheduleLinkDown(n.Now(), 1, 2)
	n.RunUntil(n.Now() + 20) // the prunes of the old tree expire
	send("after the cut")
	send("pruned, after the cut")
}
