package core

import (
	"testing"
	"testing/quick"

	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/session"
	"scmp/internal/topology"
)

// failoverNet builds a random domain with the primary m-router at node 1
// and the standby at node 2.
func failoverNet(t testing.TB, seed int64, n int) (*netsim.Network, *SCMP) {
	t.Helper()
	g, err := topology.Random(topology.DefaultRandom(n, 4), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MRouter: 1, Standby: 2, Kappa: 1.5})
	net := netsim.New(g, s)
	return net, s
}

func TestStandbyConfigValidation(t *testing.T) {
	if New(Config{MRouter: 0}).cfg.Standby != -1 {
		t.Fatal("zero-value standby not disabled")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("standby == primary accepted")
			}
		}()
		New(Config{MRouter: 2, Standby: 2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Failover without standby accepted")
			}
		}()
		s := New(Config{MRouter: 0})
		s.Failover()
	}()
}

func TestReplicationStreamsMembership(t *testing.T) {
	net, s := failoverNet(t, 1, 15)
	net.HostJoin(5, grp)
	net.HostJoin(9, grp)
	net.Run()
	if got := s.ReplicaMembers(grp); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("replica = %v", got)
	}
	if net.Metrics.Crossings(packet.Replicate) == 0 {
		t.Fatal("no REPLICATE packets crossed the network")
	}
	net.HostLeave(5, grp)
	net.Run()
	if got := s.ReplicaMembers(grp); len(got) != 1 || got[0] != 9 {
		t.Fatalf("replica after leave = %v", got)
	}
}

func TestFailoverRestoresService(t *testing.T) {
	net, s := failoverNet(t, 2, 20)
	members := []topology.NodeID{4, 7, 11, 13}
	for _, m := range members {
		net.HostJoin(m, grp)
	}
	net.Run()

	s.Failover()
	net.Run() // new TREE distribution settles

	if s.MRouter() != 2 {
		t.Fatalf("active m-router = %d, want standby 2", s.MRouter())
	}
	tree := s.GroupTree(grp)
	if tree.Root() != 2 {
		t.Fatalf("tree root = %d, want 2", tree.Root())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if !tree.IsMember(m) {
			t.Fatalf("member %d lost across failover", m)
		}
	}
	// Data from every kind of source still reaches everyone.
	for _, src := range []topology.NodeID{2, 4, 0} { // new m-router, member, off-tree
		seq := net.SendData(src, grp, 500)
		net.Run()
		missing, anomalous := net.CheckDelivery(seq)
		if len(missing) != 0 || len(anomalous) != 0 {
			t.Fatalf("src %d after failover: missing=%v anomalous=%v", src, missing, anomalous)
		}
	}
}

func TestFailoverIsIdempotent(t *testing.T) {
	net, s := failoverNet(t, 3, 15)
	net.HostJoin(6, grp)
	net.Run()
	s.Failover()
	net.Run()
	s.Failover() // no-op
	net.Run()
	if s.MRouter() != 2 {
		t.Fatal("double failover changed state")
	}
	seq := net.SendData(0, grp, 100)
	net.Run()
	if missing, _ := net.CheckDelivery(seq); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
}

func TestJoinAfterFailoverGoesToNewMRouter(t *testing.T) {
	net, s := failoverNet(t, 4, 20)
	net.HostJoin(5, grp)
	net.Run()
	s.Failover()
	net.Run()
	net.HostJoin(9, grp)
	net.Run()
	tree := s.GroupTree(grp)
	if !tree.IsMember(9) {
		t.Fatal("post-failover join not served")
	}
	seq := net.SendData(9, grp, 100)
	net.Run()
	missing, anomalous := net.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestLeaveAfterFailover(t *testing.T) {
	net, s := failoverNet(t, 5, 20)
	net.HostJoin(5, grp)
	net.HostJoin(9, grp)
	net.Run()
	s.Failover()
	net.Run()
	net.HostLeave(5, grp)
	net.Run()
	tree := s.GroupTree(grp)
	if tree.IsMember(5) || !tree.IsMember(9) {
		t.Fatalf("membership after post-failover leave wrong: %v", tree.Members())
	}
	seq := net.SendData(2, grp, 100)
	net.Run()
	missing, anomalous := net.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestAccountingRecordsMembership(t *testing.T) {
	net, s := failoverNet(t, 6, 15)
	net.HostJoin(5, grp)
	net.Run()
	net.HostLeave(5, grp)
	net.Run()
	acct := s.Accounting()
	joins, leaves := 0, 0
	for _, e := range acct.Log() {
		switch e.Kind {
		case session.EventJoin:
			joins++
		case session.EventLeave:
			leaves++
		}
	}
	if joins != 1 || leaves != 1 {
		t.Fatalf("accounting joins=%d leaves=%d", joins, leaves)
	}
	if got := acct.MemberOnTime(grp, 5); got <= 0 {
		t.Fatalf("on-time = %v, want > 0", got)
	}
}

// TestFailoverKeepsAccountingSession: the promoted standby charges the
// group's traffic to the session opened before the failover, and a later
// join opens no second one.
func TestFailoverKeepsAccountingSession(t *testing.T) {
	net, s := failoverNet(t, 2, 20)
	net.HostJoin(4, grp)
	net.HostJoin(7, grp)
	net.Run()
	net.SendData(0, grp, 100)
	net.Run()
	before, _ := s.TrafficRecord(grp)
	if before == 0 {
		t.Fatal("no traffic charged before the failover")
	}
	s.Failover()
	net.Run()
	net.SendData(0, grp, 100) // off-tree: decapsulated at the new m-router
	net.Run()
	if after, _ := s.TrafficRecord(grp); after != before+1 {
		t.Fatalf("traffic after failover = %d packets, want %d", after, before+1)
	}
	net.HostJoin(11, grp)
	net.Run()
	starts := 0
	for _, e := range s.Accounting().Log() {
		if e.Kind == session.EventSessionStart {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("%d SESSION-START records, want 1", starts)
	}
}

// TestFailoverKeepsEmptiedGroupSession: a group whose last member left
// before the failover keeps its accounting session across it, so the
// next join opens no second session and its traffic is charged to the
// first one.
func TestFailoverKeepsEmptiedGroupSession(t *testing.T) {
	net, s := failoverNet(t, 2, 20)
	net.HostJoin(4, grp)
	net.Run()
	net.HostLeave(4, grp)
	net.Run()
	id := s.groups[grp].session
	if id == 0 {
		t.Fatal("no session opened by the first join")
	}
	s.Failover()
	net.Run()
	net.HostJoin(7, grp)
	net.Run()
	net.SendData(0, grp, 100)
	net.Run()
	starts := 0
	for _, e := range s.Accounting().Log() {
		if e.Kind == session.EventSessionStart {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("%d SESSION-START records, want 1", starts)
	}
	if got := s.groups[grp].session; got != id {
		t.Fatalf("group charged to session %d after the failover, want %d", got, id)
	}
	if packets, _ := s.TrafficRecord(grp); packets != 1 {
		t.Fatalf("traffic after failover = %d packets, want 1", packets)
	}
}

// failoverDelivers is the property under test: for a random topology and
// member set derived from seed, failover restores exactly-once delivery
// from arbitrary sources.
func failoverDelivers(t *testing.T, seed int64) bool {
	rng := rng.New(seed)
	g, err := topology.Random(topology.DefaultRandom(18, 4), rng)
	if err != nil {
		return false
	}
	s := New(Config{MRouter: 1, Standby: 2, Kappa: 1.5})
	net := netsim.New(g, s)
	members := map[topology.NodeID]bool{}
	for _, v := range rng.Perm(g.N())[:6] {
		if v == 1 { // don't place members on the doomed primary
			continue
		}
		net.HostJoin(topology.NodeID(v), grp)
		members[topology.NodeID(v)] = true
	}
	net.Run()
	s.Failover()
	net.Run()
	if err := s.GroupTree(grp).Validate(); err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	for i := 0; i < 3; i++ {
		src := topology.NodeID(rng.Intn(g.N()))
		if src == 1 {
			continue // the dead primary does not originate traffic
		}
		seq := net.SendData(src, grp, 200)
		net.Run()
		missing, anomalous := net.CheckDelivery(seq)
		if len(missing) != 0 || len(anomalous) != 0 {
			t.Logf("seed %d src %d: missing=%v anomalous=%v", seed, src, missing, anomalous)
			return false
		}
	}
	return true
}

// Property: failover always restores exactly-once delivery. The quick
// run draws its seeds from a fixed internal/rng stream so every CI run
// explores the same 30 cases — the old time-seeded config made failures
// unreproducible (scmplint noclock exists for exactly this reason).
func TestPropertyFailoverDelivery(t *testing.T) {
	f := func(seed int64) bool { return failoverDelivers(t, seed) }
	cfg := &quick.Config{MaxCount: 30, Rand: rng.New(0x5C3F)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Regression: a time-seeded quick run once drew this seed and failed.
// The old tree's teardown prunes (unversioned) raced the failover TREE
// distribution: a relay already installed on the new tree honoured a
// stale pre-failover PRUNE from a child the new tree routes a member
// through, pruned itself, and stranded that member. handlePrune now
// rejects prunes from an older failover epoch.
func TestFailoverDeliveryRegressionSeed(t *testing.T) {
	if !failoverDelivers(t, 2679709531305543172) {
		t.Fatal("seed 2679709531305543172: delivery broken after failover")
	}
}
