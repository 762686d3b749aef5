package core

import (
	"scmp/internal/des"
)

// serviceCenter models the m-router's compute: the paper's m-router
// "can adopt a multiprocessor or a cluster computer architecture"
// because group management, tree generation, scheduling and routing
// "are relatively independent, which can be performed in parallel"
// (§II-B). Control requests (JOIN/LEAVE processing, tree computation)
// each occupy one processor for ServiceTime seconds; requests beyond
// the processor count queue.
//
// A zero ServiceTime short-circuits to immediate execution, which is
// what the protocol-level experiments use; the service model exists to
// study the m-router's centralisation bottleneck (BenchmarkMRouterLoad).
type serviceCenter struct {
	sched       *des.Scheduler
	serviceTime des.Time
	busyUntil   []des.Time // one entry per processor

	requests  uint64
	totalWait des.Time
	maxWait   des.Time

	// outstanding counts operations submitted but not yet executed —
	// the pending-operation queue depth admission control bounds.
	outstanding int
}

func newServiceCenter(sched *des.Scheduler, serviceTime des.Time, processors int) *serviceCenter {
	if processors < 1 {
		processors = 1
	}
	return &serviceCenter{
		sched:       sched,
		serviceTime: serviceTime,
		busyUntil:   make([]des.Time, processors),
	}
}

// submit runs fn after the request has waited for a free processor and
// been serviced. With no service time configured, fn runs synchronously.
func (sc *serviceCenter) submit(fn func()) {
	if sc.serviceTime <= 0 {
		fn()
		return
	}
	now := sc.sched.Now()
	best := 0
	for i, t := range sc.busyUntil {
		if t < sc.busyUntil[best] {
			best = i
		}
	}
	start := now
	if sc.busyUntil[best] > start {
		start = sc.busyUntil[best]
	}
	finish := start + sc.serviceTime
	sc.busyUntil[best] = finish
	wait := start - now
	sc.requests++
	sc.totalWait += wait
	if wait > sc.maxWait {
		sc.maxWait = wait
	}
	sc.outstanding++
	sc.sched.At(finish, func() {
		sc.outstanding--
		fn()
	})
}

// backlog returns the pending-operation queue depth: operations
// submitted but whose service has not yet completed. Always 0 with no
// service time (submissions execute synchronously).
func (sc *serviceCenter) backlog() int { return sc.outstanding }

// ServiceStats reports the m-router's control-plane load figures.
type ServiceStats struct {
	Requests uint64
	MeanWait float64 // mean queueing wait before service began
	MaxWait  float64
}

// ServiceStats returns the m-router's queueing statistics. All zeros
// when no service time is configured.
func (s *SCMP) ServiceStats() ServiceStats {
	sc := s.service
	if sc == nil || sc.requests == 0 {
		return ServiceStats{}
	}
	return ServiceStats{
		Requests: sc.requests,
		MeanWait: float64(sc.totalWait) / float64(sc.requests),
		MaxWait:  float64(sc.maxWait),
	}
}
