// Control-plane overload protection for SCMP, defended against the
// churn workload (netsim.ChurnPlan): deterministic admission control at
// the m-router (Config.AdmitLimit — shed newest JOINs with a
// NACK/retry-after), retry budgets with a degraded "parked" state
// (Config.RetryBudget — a budget-exhausted request stops burning the
// exponential ladder and waits one deferred re-attempt interval), and
// refresh-storm suppression (Config.RefreshSuppress, in repair.go's
// refreshGroup). Everything here is off by default; a legacy
// configuration never reaches any of it, so fault-free and PR 3
// fault-model runs are byte-identical with this file present.
package core

import (
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// admitJoin is the m-router's deterministic admission control: with an
// AdmitLimit configured, a JOIN offered while the pending-operation
// queue is full is shed — refused with a NACK telling the requester
// when the backlog should have drained. Sequence-less JOINs
// (fire-and-forget mode) are shed silently; their backstop is the
// soft-state refresh. Returns whether the JOIN may enter the service
// queue.
func (s *SCMP) admitJoin(home topology.NodeID, g packet.GroupID, member topology.NodeID, seq uint64) bool {
	if s.cfg.AdmitLimit <= 0 || s.service.backlog() < s.cfg.AdmitLimit {
		return true
	}
	s.net.Metrics.OnShed()
	if seq == 0 {
		return false
	}
	// Retry-after: the time the current backlog needs to drain through
	// the service capacity, so the shed member returns when a queue
	// slot is plausible instead of immediately re-offering.
	retryAfter := float64(s.service.backlog()+1) * s.cfg.ServiceTime / float64(len(s.service.busyUntil))
	s.buf = packet.AppendNack(s.buf[:0], packet.NackInfo{Req: packet.Join, Seq: seq, RetryAfter: retryAfter})
	s.net.SendUnicast(home, &netsim.Packet{
		Kind:    packet.Nack,
		Group:   g,
		Src:     home,
		Dst:     member,
		Payload: s.buf,
		Size:    packet.ControlSize,
	})
	return false
}

// handleNack processes an admission-control refusal at the requester:
// the matching request's backoff timer is replaced by the m-router's
// retry-after hint. The deferred retransmission still goes through
// retryFire, so it consumes an attempt from the ladder — a
// repeatedly-NACKed request runs into its retry limit (and parks, with
// a budget) instead of retrying forever. A parked slot ignores NACKs:
// its one deferred re-attempt stands.
func (s *SCMP) handleNack(node topology.NodeID, pkt *netsim.Packet) {
	info, err := packet.DecodeNack(pkt.Payload)
	if err != nil {
		return
	}
	i, ok := s.slots[pendingKey{node, pkt.Group}]
	if !ok || s.reqs[i].parked || !s.reqs[i].acked(info.Req, info.Seq) {
		return // parked, or a stale NACK for a superseded request
	}
	s.net.Sched.Stop(s.reqs[i].timer)
	wait := des.Time(info.RetryAfter)
	if wait <= 0 {
		wait = des.Time(s.cfg.AckTimeout)
	}
	s.armRetry(i, wait)
}

// park moves a budget-exhausted request into the degraded parked state:
// one deferred re-attempt timer — the refresh interval when configured
// (the request re-attempts on the next refresh tick's cadence), else
// the next step of the backoff ladder it left. The re-attempt restarts
// the ladder in the same slot (tPark), so the lineage carries over.
func (s *SCMP) park(i int32) {
	r := &s.reqs[i]
	s.net.Metrics.OnPark()
	wait := des.Time(s.cfg.RefreshInterval)
	if wait <= 0 {
		wait = s.backoff(r.attempt + 1)
	}
	r.parked, r.wasParked = true, true
	r.timer = s.net.Sched.AtTimer(s.net.Now()+wait, s, tPark, i, 0)
}

// ControlBacklog returns the m-router service centre's pending
// control-operation count — the queue depth AdmitLimit bounds. Always 0
// without a ServiceTime.
func (s *SCMP) ControlBacklog() int { return s.service.backlog() }

// PendingRequests returns the number of unacknowledged reliable control
// requests on their retry ladders across all routers.
//
//scmplint:ignore testonly — the root package's alloc_test.go checks every request is acknowledged
func (s *SCMP) PendingRequests() int { return len(s.slots) - s.ParkedRequests() }

// ParkedRequests returns the number of requests currently in the
// degraded parked state.
//
//scmplint:ignore testonly — the root package's alloc_test.go checks every request is acknowledged
func (s *SCMP) ParkedRequests() int {
	n := 0
	for i := range s.reqs {
		if s.reqs[i].live && s.reqs[i].parked {
			n++
		}
	}
	return n
}
