package core

import (
	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
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
//
// Operations complete in the order they were submitted: a request
// starts at the later of now and the earliest free processor, both of
// which only grow, so completion times never decrease. The queue is
// therefore a FIFO of typed operations, and each completion is a typed
// timer that serves the queue's head — no closure per request.
type serviceCenter struct {
	sched       *des.Scheduler
	sink        des.Sink // receives the tService completion timers
	serviceTime des.Time
	busyUntil   []des.Time // one entry per processor

	requests  uint64
	totalWait des.Time
	maxWait   des.Time

	// queue[head:] holds the operations submitted but not yet executed;
	// its length is the pending-operation depth admission control
	// bounds.
	queue []serviceOp
	head  int
}

// serviceOp is one control operation waiting for the m-router's
// compute: a JOIN or LEAVE from member, or a REJOIN carrying rejoin.
type serviceOp struct {
	kind   packet.Kind
	from   topology.NodeID
	g      packet.GroupID
	seq    uint64
	rejoin packet.RejoinInfo
}

func newServiceCenter(sched *des.Scheduler, sink des.Sink, serviceTime des.Time, processors int) *serviceCenter {
	if processors < 1 {
		processors = 1
	}
	return &serviceCenter{
		sched:       sched,
		sink:        sink,
		serviceTime: serviceTime,
		busyUntil:   make([]des.Time, processors),
	}
}

// submit queues op behind the requests already waiting and arms the
// timer that serves it once it has waited for a free processor and been
// serviced. With no service time configured nothing queues: submit
// reports false and the caller runs op synchronously.
func (sc *serviceCenter) submit(op serviceOp) bool {
	if sc.serviceTime <= 0 {
		return false
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
	if sc.head > 0 && len(sc.queue) == cap(sc.queue) {
		// Slide the live tail to the front before append would grow.
		sc.queue = sc.queue[:copy(sc.queue, sc.queue[sc.head:])]
		sc.head = 0
	}
	sc.queue = append(sc.queue, op)
	sc.sched.AtTimer(finish, sc.sink, tService, 0, 0)
	return true
}

// next dequeues the operation whose service just completed: the
// completions fire in submission order, so it is the queue's head.
func (sc *serviceCenter) next() serviceOp {
	op := sc.queue[sc.head]
	if sc.head++; sc.head == len(sc.queue) {
		sc.queue, sc.head = sc.queue[:0], 0
	}
	return op
}

// backlog returns the pending-operation queue depth: operations
// submitted but whose service has not yet completed. Always 0 with no
// service time (submissions execute synchronously).
func (sc *serviceCenter) backlog() int { return len(sc.queue) - sc.head }

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
