package core

import (
	"math/rand"
	"sort"
	"testing"

	destime "scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// Multi-m-router / failover churn coverage: the static HomeOf
// assignment and the hot-standby promotion, exercised together with
// the overload-protection knobs (reliable signalling, retry budget,
// admission limit, service time) under membership churn and control
// loss — the combination the flat deployment story rests on.

// churnPlan drives a randomized join/leave schedule across groups,
// tracking the intended final membership per group.
type churnPlan struct {
	want map[packet.GroupID]map[topology.NodeID]bool
}

// schedule spreads ops over (0, span): each op flips a random node's
// membership in a random group, scheduled through the simulator clock
// so it interleaves with retries, shedding and refresh ticks. A
// pre-seeded want map declares memberships that already exist — flips
// start from it.
func (p *churnPlan) schedule(n *netsim.Network, r *rand.Rand, groups []packet.GroupID, nodes, ops int, span float64) {
	if p.want == nil {
		p.want = map[packet.GroupID]map[topology.NodeID]bool{}
	}
	for _, g := range groups {
		if p.want[g] == nil {
			p.want[g] = map[topology.NodeID]bool{}
		}
	}
	base := n.Sched.Now()
	steps := make([]netsim.Step, ops)
	for op := range steps {
		gid := groups[r.Intn(len(groups))]
		v := topology.NodeID(r.Intn(nodes))
		steps[op] = netsim.Step{At: base + destime.Time(span*float64(op+1)/float64(ops+1)), Node: int32(v), Group: gid, Kind: netsim.Join}
		if p.want[gid][v] {
			delete(p.want[gid], v)
			steps[op].Kind = netsim.Leave
		} else {
			p.want[gid][v] = true
		}
	}
	n.InstallScript(steps)
}

// verify checks each group's converged state: tree rooted at its
// published home, valid, carrying exactly the intended members, and
// delivering data exactly once from on- and off-tree sources.
func (p *churnPlan) verify(t *testing.T, n *netsim.Network, s *SCMP, src topology.NodeID) {
	t.Helper()
	gids := make([]packet.GroupID, 0, len(p.want))
	for gid := range p.want {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		want := p.want[gid]
		tr := s.GroupTree(gid)
		if len(want) == 0 {
			if tr != nil && tr.MemberCount() != 0 {
				t.Fatalf("group %d: %d members linger, want none", gid, tr.MemberCount())
			}
			continue
		}
		if tr == nil {
			t.Fatalf("group %d: no tree for %d intended members", gid, len(want))
		}
		if tr.Root() != s.HomeOf(gid) {
			t.Fatalf("group %d: tree root %d != published home %d", gid, tr.Root(), s.HomeOf(gid))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("group %d: %v", gid, err)
		}
		for v := range want {
			if !tr.IsMember(v) {
				t.Fatalf("group %d: member %d lost (tree has %v)", gid, v, tr.Members())
			}
		}
		if got := tr.MemberCount(); got != len(want) {
			t.Fatalf("group %d: %d members on tree, want %d (%v)", gid, got, len(want), tr.Members())
		}
		seq := n.SendData(src, gid, 300)
		n.Run()
		missing, anomalous := n.CheckDelivery(seq)
		if len(missing) != 0 || len(anomalous) != 0 {
			t.Fatalf("group %d: missing=%v anomalous=%v", gid, missing, anomalous)
		}
	}
}

// TestMultiMRouterChurnUnderOverloadProtection: churn across groups
// homed on two m-routers with the full PR-8 knob set armed and a
// control-loss window covering most of the churn. Every group must
// converge to its intended membership on a tree rooted at its static
// HomeOf assignment — shedding, retries and parked re-attempts
// included — once the loss heals and refresh reconverges stragglers.
func TestMultiMRouterChurnUnderOverloadProtection(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g, err := topology.Random(topology.DefaultRandom(24, 4), r)
	if err != nil {
		t.Fatal(err)
	}
	homes := []topology.NodeID{1, 2}
	n, s := newNet(g, Config{
		MRouters:        homes,
		Kappa:           1.5,
		AckTimeout:      5,
		RetryBudget:     2,
		ServiceTime:     0.05,
		AdmitLimit:      4,
		RefreshInterval: 40,
		RefreshSuppress: true,
	})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 0.3, LossUntil: 120, Seed: 7})

	groups := []packet.GroupID{1, 2, 3, 4}
	for _, gid := range groups {
		if want := homes[int(gid)%len(homes)]; s.HomeOf(gid) != want {
			t.Fatalf("HomeOf(%d) = %d, want %d", gid, s.HomeOf(gid), want)
		}
	}
	var plan churnPlan
	plan.schedule(n, r, groups, g.N(), 60, 100)
	// The drain deadline must clear the in-flight control tail: link
	// delays run up to 100, so a request transmitted near convergence
	// can land a full round trip later — a JOIN arriving after Quiesce
	// re-arms the (by design perpetual) refresh chain and Run would
	// never return.
	n.RunUntil(700)
	s.Quiesce()
	n.Run()
	plan.verify(t, n, s, 5)
	if s.pendingRequests() != 0 || s.parkedRequests() != 0 {
		t.Fatalf("drain left %d pending / %d parked requests", s.pendingRequests(), s.parkedRequests())
	}
}

// TestFailoverUnderChurnWithReliableSignalling: the hot standby is
// promoted in the middle of a churn burst running under control loss,
// while reliable requests are mid-ladder. Retransmissions re-resolve
// the home at fire time, so the pending ladder must land on the new
// m-router: after the dust settles every group's tree is rooted at the
// standby, HomeOf reports it, and the intended membership delivers.
func TestFailoverUnderChurnWithReliableSignalling(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g, err := topology.Random(topology.DefaultRandom(20, 4), r)
	if err != nil {
		t.Fatal(err)
	}
	n, s := newNet(g, Config{
		MRouter:         1,
		Standby:         2,
		Kappa:           1.5,
		AckTimeout:      5,
		RetryBudget:     2,
		RefreshInterval: 40,
		RefreshSuppress: true,
	})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 0.3, LossUntil: 80, Seed: 9})

	groups := []packet.GroupID{1, 2}
	var plan churnPlan
	plan.schedule(n, r, groups, g.N(), 30, 100)
	n.InstallScript([]netsim.Step{{At: 50, Kind: netsim.Failover}}) // mid-burst, inside the loss window
	n.RunUntil(700)                                                 // past the in-flight control tail (see above)
	s.Quiesce()
	n.Run()

	if s.MRouter() != 2 {
		t.Fatalf("active m-router = %d, want promoted standby 2", s.MRouter())
	}
	for _, gid := range groups {
		if s.HomeOf(gid) != 2 {
			t.Fatalf("HomeOf(%d) = %d after failover, want 2", gid, s.HomeOf(gid))
		}
	}
	plan.verify(t, n, s, 3)
}

// TestFailoverThenChurnConverges is the quiet-point variant: promote
// the standby with no requests in flight, then run a clean churn burst
// against the new home. Post-failover joins and leaves must be served
// by the standby alone (epoch-stamped distributions), ending exactly
// at the intended membership.
func TestFailoverThenChurnConverges(t *testing.T) {
	n, s := failoverNet(t, 21, 20)
	n.HostJoin(5, grp)
	n.HostJoin(9, grp)
	n.Run()

	s.Failover()
	n.Run()

	r := rand.New(rand.NewSource(23))
	// Seed the plan with the pre-failover members so the flips start
	// from the real membership.
	plan := churnPlan{want: map[packet.GroupID]map[topology.NodeID]bool{
		grp: {5: true, 9: true},
	}}
	plan.schedule(n, r, []packet.GroupID{grp}, 20, 25, 50)
	n.RunUntil(300)
	s.Quiesce()
	n.Run()
	if s.MRouter() != 2 {
		t.Fatalf("active m-router = %d, want 2", s.MRouter())
	}
	plan.verify(t, n, s, 0)
}
