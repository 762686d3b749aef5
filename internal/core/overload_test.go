package core

import (
	"reflect"
	"testing"

	destime "scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// TestLeaveCancelsJoinRetry is the leave-vs-retry race audit: a member
// joins inside a total control-loss window (so its JOIN sits on the
// retransmission ladder), then leaves before any transmission got
// through. The LEAVE supersedes the pending JOIN — cancelling its
// retry timer — so once the loss heals no stale JOIN retransmission
// may resurrect the membership.
func TestLeaveCancelsJoinRetry(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 10, RetryCap: 6})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, LossUntil: 35, Seed: 3})
	n.HostJoin(2, grp)
	n.Sched.At(15, func() { n.HostLeave(2, grp) })
	n.Run()

	if tr := s.GroupTree(grp); tr != nil && len(tr.Members()) != 0 {
		t.Fatalf("membership resurrected by a stale JOIN retry: %v", tr.Members())
	}
	if got := n.Members(grp); len(got) != 0 {
		t.Fatalf("ground-truth members after leave: %v", got)
	}
	if e, ok := s.Entry(2, grp); ok && (e.OnTree || e.HasLocal) {
		t.Fatalf("router 2 entry after leave: %+v", e)
	}
	if s.PendingRequests() != 0 {
		t.Fatalf("%d pending requests after drain", s.PendingRequests())
	}
}

// TestLeaveCancelsParkedJoin is the same audit for the parked state: a
// JOIN that exhausted its retry budget and parked must be cancelled by
// a subsequent leave — the deferred re-attempt may not resurrect the
// membership either.
func TestLeaveCancelsParkedJoin(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 5, RetryBudget: 2, RefreshInterval: 40})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, LossUntil: 60, Seed: 3})
	n.HostJoin(2, grp)
	// Ladder: transmit at 0, retries at 5 and 15, park at 35 with a
	// deferred re-attempt at 75. The leave at 50 lands in between.
	n.Sched.At(50, func() {
		if s.ParkedRequests() != 1 {
			t.Errorf("parked requests at t=50: %d, want 1", s.ParkedRequests())
		}
		n.HostLeave(2, grp)
		if s.ParkedRequests() != 0 {
			t.Errorf("leave did not supersede the parked JOIN")
		}
	})
	n.RunUntil(200)
	s.Quiesce()
	n.Run()

	if n.Metrics.Parks() == 0 {
		t.Fatal("no park recorded")
	}
	if tr := s.GroupTree(grp); tr != nil && len(tr.Members()) != 0 {
		t.Fatalf("membership resurrected by a parked JOIN: %v", tr.Members())
	}
}

// TestQuiesceCancelsParkedTimers: Quiesce must cancel parked deferred
// re-attempt timers (not just pending retry timers), or the final
// drain would spin re-attempts forever under sustained loss.
func TestQuiesceCancelsParkedTimers(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 5, RetryBudget: 1})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, Seed: 1}) // loss never heals
	n.HostJoin(2, grp)
	n.RunUntil(100)
	s.Quiesce()
	n.Run() // must terminate
	if s.ParkedRequests() != 0 || s.PendingRequests() != 0 {
		t.Fatalf("quiesce left %d parked / %d pending requests",
			s.ParkedRequests(), s.PendingRequests())
	}
}

// TestQuiesceRunTerminates: on the hardened stack, service operations
// still queued at the deadline complete after Quiesce. They must not
// re-arm refresh, and the replication ladders they start toward a dead
// standby must not park, so the drain ends; the next external input
// lifts the quiesce.
func TestQuiesceRunTerminates(t *testing.T) {
	n, s := newNet(meshGraph(), Config{
		MRouter: 0, ServiceTime: 10, Processors: 1,
		AckTimeout: 5, RetryBudget: 2, RefreshInterval: 3, Standby: 5,
	})
	n.InstallFaults(netsim.FaultPlan{})
	n.InstallScript([]netsim.Step{{At: 0, Node: 5, Kind: netsim.NodeDown}})
	for _, m := range []topology.NodeID{1, 2, 3, 4} {
		n.HostJoin(m, grp)
	}
	n.RunUntil(12)
	if s.ControlBacklog() == 0 {
		t.Fatal("no service backlog at the deadline")
	}
	s.Quiesce()
	const bound = 100000
	for steps := 0; n.Sched.Step(); steps++ {
		if steps == bound {
			t.Fatalf("still %d events pending after %d steps past Quiesce", n.Sched.Pending(), bound)
		}
	}
	if s.ControlBacklog() != 0 || s.PendingRequests() != 0 || s.ParkedRequests() != 0 {
		t.Fatalf("drained with backlog %d, %d pending / %d parked requests",
			s.ControlBacklog(), s.PendingRequests(), s.ParkedRequests())
	}

	n.HostJoin(4, grp+1)
	n.RunUntil(n.Now() + 100)
	if n.Sched.Pending() == 0 {
		t.Fatal("refresh not re-armed after the next join")
	}
}

// TestRetryBudgetParksAndRecovers: a JOIN that burns its whole retry
// budget inside a loss window parks, then recovers via the deferred
// re-attempt once the loss heals — and both transitions are counted.
func TestRetryBudgetParksAndRecovers(t *testing.T) {
	n, s := newNet(meshGraph(), Config{MRouter: 0, AckTimeout: 5, RetryBudget: 2, RefreshInterval: 40})
	n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, LossUntil: 60, Seed: 3})
	n.HostJoin(2, grp)
	// Transmissions at 0/5/15 are lost; park at 35; the deferred
	// re-attempt at 75 is past the loss window and succeeds.
	n.RunUntil(150)
	s.Quiesce()
	n.Run()

	if n.Metrics.Parks() == 0 {
		t.Fatal("budget exhausted but no park recorded")
	}
	if n.Metrics.ParkRecovers() == 0 {
		t.Fatal("parked JOIN never recovered")
	}
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("member stranded after park recovery: %v", missing)
	}
}

// TestAdmissionShedsAndConverges: four members join at once against a
// slow single-processor m-router with a one-slot admission queue. The
// overflow JOINs are shed with NACKs; the retry-after path must still
// converge every member, and the sheds must be counted.
func TestAdmissionShedsAndConverges(t *testing.T) {
	n, s := newNet(meshGraph(), Config{
		MRouter: 0, ServiceTime: 5, Processors: 1,
		AdmitLimit: 1, AckTimeout: 10, RetryCap: 8,
	})
	n.InstallFaults(netsim.FaultPlan{})
	for _, m := range []topology.NodeID{2, 3, 4, 5} {
		n.HostJoin(m, grp)
	}
	n.Run()

	if n.Metrics.Sheds() == 0 {
		t.Fatal("admission control never shed under a full queue")
	}
	if missing := probe(t, n, 0); len(missing) != 0 {
		t.Fatalf("shed members never converged: %v", missing)
	}
	if s.ControlBacklog() != 0 {
		t.Fatalf("control backlog %d after drain", s.ControlBacklog())
	}
}

// TestRefreshSuppression: under a steady membership-change drip every
// refresh tick lands within one interval of the last change, so with
// suppression on the ticks are skipped (and counted); with it off the
// same schedule skips nothing.
func TestRefreshSuppression(t *testing.T) {
	run := func(suppress bool) (skips int64) {
		n, s := newNet(meshGraph(), Config{
			MRouter: 0, AckTimeout: 5, RefreshInterval: 10, RefreshSuppress: suppress,
		})
		n.HostJoin(3, grp) // stable member keeps the tree non-empty
		for i := 0; i < 6; i++ {
			at, flapOn := float64(4+8*i), i%2 == 0
			n.Sched.At(destime.Time(at), func() {
				if flapOn {
					n.HostJoin(2, grp)
				} else {
					n.HostLeave(2, grp)
				}
			})
		}
		n.RunUntil(60)
		s.Quiesce()
		n.Run()
		if missing := probe(t, n, 0); len(missing) != 0 {
			t.Fatalf("suppress=%v: probe missing %v", suppress, missing)
		}
		return n.Metrics.RefreshSkips()
	}
	if skips := run(true); skips == 0 {
		t.Fatal("suppression on: no refresh tick was skipped")
	}
	if skips := run(false); skips != 0 {
		t.Fatalf("suppression off: %d ticks skipped", skips)
	}
}

// slot returns key's request slot, nil when it has none.
func (s *SCMP) slot(key pendingKey) *reqSlot {
	if i, ok := s.slots[key]; ok {
		return &s.reqs[i]
	}
	return nil
}

// TestRequestSlotLifecycle pins what each event does to the request
// slots, on their retry ladders or parked. Every control packet is lost,
// so no slot resolves by itself: routers 2 and 3 join group 1 at t=0
// (those slots park at t=15) and group 2 at t=50 (still on their ladders
// at t=52); the m-router's own durable JOIN and its replication snapshot
// to the standby park too. Each case acts at t=52 and names the slots it
// must remove; every other slot must survive in the state it was in.
func TestRequestSlotLifecycle(t *testing.T) {
	deliver := func(s *SCMP, to topology.NodeID, g packet.GroupID, kind packet.Kind, payload []byte) {
		s.HandlePacket(to, &netsim.Packet{Kind: kind, Group: g, Src: 0, Dst: to, Payload: payload, Size: packet.ControlSize})
	}
	for _, tc := range []struct {
		name string
		// act drives the event and reports which slots it must remove.
		act func(t *testing.T, n *netsim.Network, s *SCMP) (gone func(pendingKey) bool)
	}{
		{"node down clears the crashed router's ladder and parked slots", func(t *testing.T, n *netsim.Network, s *SCMP) func(pendingKey) bool {
			s.NodeDown(2)
			return func(k pendingKey) bool { return k.node == 2 }
		}},
		{"failover drops only the replication slots", func(t *testing.T, n *netsim.Network, s *SCMP) func(pendingKey) bool {
			s.Failover()
			return func(k pendingKey) bool { return k == replKey(1) }
		}},
		{"a NACK for a parked slot does not re-arm it", func(t *testing.T, n *netsim.Network, s *SCMP) func(pendingKey) bool {
			r := s.slot(pendingKey{2, 1})
			timer := r.timer
			deliver(s, 2, 1, packet.Nack, packet.AppendNack(nil, packet.NackInfo{Req: packet.Join, Seq: r.seq, RetryAfter: 1}))
			if r.timer != timer || !n.Sched.Armed(timer) {
				t.Error("the NACK replaced the parked slot's deferred re-attempt")
			}
			return func(pendingKey) bool { return false }
		}},
		{"a NACK for a laddered slot re-arms it", func(t *testing.T, n *netsim.Network, s *SCMP) func(pendingKey) bool {
			r := s.slot(pendingKey{2, 2})
			timer := r.timer
			deliver(s, 2, 2, packet.Nack, packet.AppendNack(nil, packet.NackInfo{Req: packet.Join, Seq: r.seq, RetryAfter: 1}))
			if r.timer == timer || n.Sched.Armed(timer) {
				t.Error("the NACK left the backoff timer in place")
			}
			return func(pendingKey) bool { return false }
		}},
		{"a late ACK for a parked slot counts one park recovery", func(t *testing.T, n *netsim.Network, s *SCMP) func(pendingKey) bool {
			r := s.slot(pendingKey{2, 1})
			timer := r.timer
			before := n.Metrics.ParkRecovers()
			ack := packet.EncodeAck(packet.AckInfo{Req: packet.Join, Seq: r.firstSeq})
			deliver(s, 2, 1, packet.Ack, ack)
			deliver(s, 2, 1, packet.Ack, ack) // a duplicate resolves nothing more
			if got := n.Metrics.ParkRecovers() - before; got != 1 {
				t.Errorf("%d park recoveries, want 1", got)
			}
			if n.Sched.Armed(timer) {
				t.Error("the resolved slot's deferred re-attempt is still armed")
			}
			return func(k pendingKey) bool { return k == pendingKey{2, 1} }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, s := newNet(meshGraph(), Config{MRouter: 0, Standby: 4, AckTimeout: 5, RetryBudget: 1, RefreshInterval: 1000})
			n.InstallFaults(netsim.FaultPlan{ControlLoss: 1, Seed: 1})
			n.HostJoin(0, 1)
			for _, v := range []topology.NodeID{2, 3} {
				n.HostJoin(v, 1)
				n.Sched.At(50, func() { n.HostJoin(v, 2) })
			}
			n.RunUntil(52)
			parked := map[pendingKey]bool{}
			for k := range s.slots {
				parked[k] = s.slot(k).parked
			}
			want := map[pendingKey]bool{
				{0, 1}: true, replKey(1): true, {2, 1}: true, {3, 1}: true, {2, 2}: false, {3, 2}: false,
			}
			if !reflect.DeepEqual(parked, want) {
				t.Fatalf("fixture slots (key: parked) = %v, want %v", parked, want)
			}

			gone := tc.act(t, n, s)
			for k, wasParked := range want {
				r := s.slot(k)
				ok := r != nil
				switch {
				case gone(k) && ok:
					t.Errorf("slot %v survived", k)
				case !gone(k) && !ok:
					t.Errorf("slot %v removed", k)
				case ok && r.parked != wasParked:
					t.Errorf("slot %v parked = %v, was %v", k, r.parked, wasParked)
				}
			}
			if len(s.slots) > len(want) {
				t.Errorf("%d slots, want at most %d", len(s.slots), len(want))
			}
		})
	}
}
