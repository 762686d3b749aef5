package core

import (
	"math/rand"
	"runtime"
	"testing"

	"scmp/internal/mtree"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// TestReliableRoundTripAllocFloor pins the hardened control plane's
// per-request bill on the 400-node Waxman instance: a member router's
// JOIN and then its LEAVE, each carried by a reliable request slot
// through the m-router's modelled service queue and answered with an
// ACK, beside 40 resident members, with admission control, retry
// budgets and refresh suppression configured. Timers (retransmission,
// service completion, refresh) are typed scheduler events, request
// slots are recycled, and every payload is encoded into scratch that
// the in-flight packet copies into its own buffer, so the cycle pays one
// allocation, the DCDM join's grafted path.
func TestReliableRoundTripAllocFloor(t *testing.T) {
	if mtree.InvariantChecksArmed {
		t.Skip("invariants build: per-mutation Validate allocates freely")
	}
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		MRouter: 0, Kappa: 1.5,
		AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2,
		ServiceTime: 0.00075, Processors: 1,
		AdmitLimit: 32, RetryBudget: 4, RefreshSuppress: true,
	})
	n := netsim.New(wg.Graph.ScaleDelays(1e-5), s)
	var routers []topology.NodeID // 8 that join and leave, then 40 resident members
	for _, v := range rand.New(rand.NewSource(7)).Perm(n.G.N()) {
		if v != 0 && len(routers) < 48 {
			routers = append(routers, topology.NodeID(v))
		}
	}
	pool := routers[:8]
	for _, m := range routers[8:] {
		n.HostJoin(m, 1)
		n.RunUntil(n.Now() + 0.05)
	}
	settle := func() { n.RunUntil(n.Now() + 0.5) }
	settle()
	i := 0
	cycle := func() {
		v := pool[i%len(pool)]
		i++
		n.HostJoin(v, 1)
		settle()
		n.HostLeave(v, 1)
		settle()
		if s.pendingRequests() != 0 || s.parkedRequests() != 0 {
			t.Fatalf("router %d: %d requests unacknowledged after the round trip", v, s.pendingRequests()+s.parkedRequests())
		}
	}
	for k := 0; k < 4*len(pool); k++ { // every pool router's entry, and the scratch, warm
		cycle()
	}
	const budget = 2.0 // per JOIN+LEAVE cycle
	avg := testing.AllocsPerRun(200, cycle)
	t.Logf("%.2f allocs per acknowledged JOIN+LEAVE cycle", avg)
	if avg > budget {
		t.Errorf("hardened JOIN+LEAVE round trip allocates %.2f per cycle, budget %.0f; locate the new site with "+
			"`go test -run '^TestReliableRoundTripAllocFloor$' -memprofile mem.out -memprofilerate 1 ./internal/core/` and "+
			"`go tool pprof -sample_index alloc_objects -top mem.out`, then `-list` the function it names",
			avg, budget)
	}
}

// nopProto is a protocol that does nothing, so a measurement sees the
// network layer alone.
type nopProto struct{}

func (nopProto) Name() string                                          { return "nop" }
func (nopProto) Attach(*netsim.Network)                                {}
func (nopProto) HandlePacket(topology.NodeID, *netsim.Packet)          {}
func (nopProto) HostJoin(topology.NodeID, packet.GroupID)              {}
func (nopProto) HostLeave(topology.NodeID, packet.GroupID)             {}
func (nopProto) SendData(topology.NodeID, packet.GroupID, int, uint64) {}

// TestFaultReconvergeAllocFloor pins the cost model of lazy
// reconvergence on the 400-node Waxman, in two arms. Substrate: a
// LinkDown + LinkUp pair with 8 unicast destinations consulted after
// each event allocates O(1) bytes — the two one-step scripts — because
// the routing store is invalidated in place and the rows it retires are
// the arrays the next ones are started on. Fresh rows each time would be
// 8 x 12.9 KB per event. Hardened SCMP with repair on: one group of 8
// members whose m-router loses and regains a tree link. The group's DCDM
// reads the network's own tables across every pair — there is no
// private copy to rebuild — so after the first pair's re-graft a pair
// costs the fault scripts and the m-router's rebase: about 100 bytes
// measured (go1.24, linux/amd64), where two fresh n-slot tables and a
// copy of the arc mask per event came to 51.7 KB. One budget covers
// both arms.
func TestFaultReconvergeAllocFloor(t *testing.T) {
	wg, err := topology.Waxman(topology.DefaultWaxman(400), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := wg.Graph
	const pairs = 50
	perPair := func(pair func()) uint64 {
		pair() // start the rows every later pair recycles
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			pair()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / pairs
	}

	n := netsim.New(g, nopProto{})
	f := n.InstallFaults(netsim.FaultPlan{})
	u, v := topology.NodeID(0), g.Neighbors(0)[0].To
	consulted := []topology.NodeID{0, 7, 42, 99, 123, 250, 311, 399}
	consult := func() {
		n.Run()
		for _, dst := range consulted {
			n.Delay.Hop(1, dst)
		}
		if got := n.Delay.Materialized(); got != len(consulted) {
			t.Fatalf("%d rows started after consulting %d destinations", got, len(consulted))
		}
	}
	const budget = 1 << 10 // bytes per pair, either arm
	per := perPair(func() {
		f.ScheduleLinkDown(n.Now(), u, v)
		consult()
		f.ScheduleLinkUp(n.Now(), u, v)
		consult()
	})
	t.Logf("substrate: %d bytes per fault pair", per)
	if per > budget {
		t.Errorf("fault pair + %d consulted destinations allocates %d bytes, budget %d; locate the new site with "+
			"`go test -run '^TestFaultReconvergeAllocFloor$' -memprofile mem.out -memprofilerate 1 ./internal/core/` and "+
			"`go tool pprof -sample_index alloc_space -top mem.out`, then `-list` the function it names",
			len(consulted), per, budget)
	}

	s := New(Config{MRouter: 0, Kappa: 1.5, AckTimeout: 0.05, RetryCap: 8, RefreshInterval: 2})
	n = netsim.New(g.ScaleDelays(1e-7), s)
	f = n.InstallFaults(netsim.FaultPlan{})
	for _, m := range rand.New(rand.NewSource(7)).Perm(g.N())[:8] {
		n.HostJoin(topology.NodeID(m), 1)
	}
	settle := func() {
		n.RunUntil(n.Now() + 4)
		s.Quiesce()
		n.Run()
	}
	settle()
	v = s.GroupTree(1).Children(0)[0]
	d := s.groupEngine(1)
	per = perPair(func() {
		f.ScheduleLinkDown(n.Now(), 0, v)
		settle()
		f.ScheduleLinkUp(n.Now(), 0, v)
		settle()
		if dd, dc := d.Tables(); dd != n.Delay || dc != n.Cost {
			t.Fatal("the group's DCDM reads tables other than the network's routing store")
		}
	})
	t.Logf("hardened SCMP: %d bytes per fault pair", per)
	if per > budget {
		t.Errorf("hardened SCMP fault pair allocates %d bytes, budget %d; locate the new site with "+
			"`go test -run '^TestFaultReconvergeAllocFloor$' -memprofile mem.out -memprofilerate 1 ./internal/core/` and "+
			"`go tool pprof -sample_index alloc_space -top mem.out`, then `-list` the function it names",
			per, budget)
	}
	if p, ok := s.GroupTree(1).Parent(v); ok && p == 0 {
		t.Fatalf("the tree still hangs %d off the m-router: the cut was never repaired around", v)
	}
	seq := n.SendData(0, 1, packet.DefaultDataSize)
	n.Run()
	if missing, _ := n.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("members %v stranded after %d fault pairs", missing, pairs+1)
	}
}
