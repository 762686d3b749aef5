package core

import (
	"testing"

	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// serviceLog is the completion sink of a bare service centre: each
// completion timer serves the queue's head, recorded with its time.
type serviceLog struct {
	sc   *serviceCenter
	ops  []serviceOp
	done []des.Time
}

func (l *serviceLog) SinkEvent(op uint8, _, _ int32, _ any, _ bool) {
	if op != tService {
		panic("service centre armed a non-service timer")
	}
	l.ops = append(l.ops, l.sc.next())
	l.done = append(l.done, l.sc.sched.Now())
}

func newLoggedCenter(sched *des.Scheduler, serviceTime des.Time, processors int) (*serviceCenter, *serviceLog) {
	l := &serviceLog{}
	l.sc = newServiceCenter(sched, l, serviceTime, processors)
	return l.sc, l
}

func TestServiceZeroTimeIsSynchronous(t *testing.T) {
	sc, _ := newLoggedCenter(des.New(), 0, 4)
	if sc.submit(serviceOp{kind: packet.Join}) {
		t.Fatal("zero service time must leave the operation to run synchronously")
	}
	if sc.requests != 0 || sc.backlog() != 0 {
		t.Fatal("synchronous path should not count queueing requests")
	}
}

func TestServiceSingleProcessorQueues(t *testing.T) {
	sched := des.New()
	sc, log := newLoggedCenter(sched, 2, 1)
	for i := 1; i <= 3; i++ { // services 0..2, then waits 2 and 4
		sc.submit(serviceOp{seq: uint64(i)})
	}
	if sc.backlog() != 3 {
		t.Fatalf("backlog = %d, want 3", sc.backlog())
	}
	sched.Run()
	if len(log.done) != 3 || log.done[0] != 2 || log.done[1] != 4 || log.done[2] != 6 {
		t.Fatalf("completions = %v, want [2 4 6]", log.done)
	}
	if sc.maxWait != 4 || sc.totalWait != 6 || sc.backlog() != 0 {
		t.Fatalf("maxWait=%v totalWait=%v backlog=%d", sc.maxWait, sc.totalWait, sc.backlog())
	}
}

func TestServiceParallelProcessors(t *testing.T) {
	sched := des.New()
	sc, log := newLoggedCenter(sched, 2, 3)
	for i := 0; i < 3; i++ {
		sc.submit(serviceOp{})
	}
	sched.Run()
	for _, d := range log.done {
		if d != 2 {
			t.Fatalf("completions = %v, want all at 2", log.done)
		}
	}
	if sc.maxWait != 0 {
		t.Fatalf("maxWait = %v, want 0", sc.maxWait)
	}
}

// Completions serve the queue in submission order whatever the processor
// count and arrival pattern, and a backlog that never drains keeps the
// queue's storage bounded by its depth, not by the requests served.
func TestServiceFIFO(t *testing.T) {
	for _, procs := range []int{1, 2, 5} {
		sched := des.New()
		sc, log := newLoggedCenter(sched, 0.3, procs)
		rng := rng.New(int64(procs))
		next, peak := uint64(1), 0
		for i := 0; i < 2000; i++ {
			sched.RunUntil(sched.Now() + des.Time(rng.Intn(3))*0.1)
			for k := rng.Intn(4); k > 0; k-- {
				sc.submit(serviceOp{seq: next})
				next++
				peak = max(peak, sc.backlog())
			}
		}
		if cap(sc.queue) > 2*peak {
			t.Fatalf("%d processors: queue storage %d for a peak backlog of %d", procs, cap(sc.queue), peak)
		}
		sched.Run()
		for i, op := range log.ops {
			if op.seq != uint64(i+1) {
				t.Fatalf("%d processors: completion %d served seq %d", procs, i, op.seq)
			}
			if i > 0 && log.done[i] < log.done[i-1] {
				t.Fatalf("%d processors: completion times went backwards at %d", procs, i)
			}
		}
		if uint64(len(log.ops)) != next-1 {
			t.Fatalf("%d processors: %d served, %d submitted", procs, len(log.ops), next-1)
		}
	}
}

func TestServiceProcessorsFloor(t *testing.T) {
	sc, _ := newLoggedCenter(des.New(), 1, 0)
	if len(sc.busyUntil) != 1 {
		t.Fatalf("processors = %d, want 1", len(sc.busyUntil))
	}
}

// TestMRouterLoadAblation verifies the §II-B argument quantitatively: a
// join burst at a single-processor m-router queues; adding processors
// removes the queueing.
func TestMRouterLoadAblation(t *testing.T) {
	g, err := topology.Random(topology.DefaultRandom(40, 4), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	maxWait := func(processors int) float64 {
		s := New(Config{MRouter: 0, ServiceTime: 0.05, Processors: processors})
		n := netsim.New(g, s)
		for v := 1; v <= 20; v++ {
			n.HostJoin(topology.NodeID(v), grp)
		}
		n.Run()
		stats := s.ServiceStats()
		if stats.Requests == 0 {
			t.Fatal("no requests serviced")
		}
		return stats.MaxWait
	}
	one := maxWait(1)
	eight := maxWait(8)
	if one <= eight {
		t.Fatalf("1-proc max wait %.3f not above 8-proc %.3f", one, eight)
	}
	if eight > one/2 {
		t.Fatalf("8 processors should cut the wait substantially: %.3f vs %.3f", eight, one)
	}
}

func TestServiceDelaysJoinButDelivers(t *testing.T) {
	g, err := topology.Random(topology.DefaultRandom(20, 4), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	s := New(Config{MRouter: 0, ServiceTime: 0.01, Processors: 2})
	n := netsim.New(g, s)
	n.HostJoin(5, grp)
	n.HostJoin(9, grp)
	n.Run()
	seq := n.SendData(3, grp, 500)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if s.ServiceStats().Requests != 2 {
		t.Fatalf("requests = %d, want 2", s.ServiceStats().Requests)
	}
}

func TestServiceStatsZeroValue(t *testing.T) {
	s := New(Config{MRouter: 0})
	g := topology.New(2)
	g.MustAddEdge(0, 1, 1, 1)
	netsim.New(g, s)
	stats := s.ServiceStats()
	if stats.Requests != 0 || stats.MeanWait != 0 || stats.MaxWait != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}
