package des

import "container/heap"

// refScheduler is the historical scheduler — container/heap over one
// allocation per event — kept as the oracle the pooled scheduler and
// its two-tier queue are checked against (TestRefEquivalence,
// FuzzRefEquivalence). It has no lanes and no typed timers: a lane push
// is a plain sink event here and a timer a closure making the timer's
// call, so equal traces mean the pooled scheduler's lanes and timers
// dispatch in exact (time, seq) order.
type refScheduler struct {
	now   Time
	seq   uint64
	fired uint64
	queue refHeap
	sink  Sink
}

// refEvent is the old heap element and its own cancellation handle.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

func (e *refEvent) Cancel()         { e.dead = true }
func (e *refEvent) Cancelled() bool { return e.dead }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[j].at < h[i].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

func (r *refScheduler) Now() Time           { return r.now }
func (r *refScheduler) Fired() uint64       { return r.fired }
func (r *refScheduler) Pending() int        { return len(r.queue) }
func (r *refScheduler) SetSink(k Sink)      { r.sink = k }
func (r *refScheduler) NewLanes(k int) Lane { return 0 }

func (r *refScheduler) push(t Time, fn func()) *refEvent {
	if !(t >= r.now) {
		panic("des: event scheduled in the past")
	}
	e := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.queue, e)
	return e
}

func (r *refScheduler) At(t Time, fn func()) { r.push(t, fn) }

// AtSink captures the tuple in a closure: the allocation profile the
// pooled slots exist to avoid.
func (r *refScheduler) AtSink(t Time, op uint8, a, b int32, p any, flag bool) {
	sink := r.sink
	r.At(t, func() { sink.SinkEvent(op, a, b, p, flag) })
}

func (r *refScheduler) LaneSink(_ Lane, t Time, op uint8, a, b int32, p any, flag bool) {
	r.AtSink(t, op, a, b, p, flag)
}

func (r *refScheduler) AtTimer(t Time, k Sink, op uint8, a, b int32) handle {
	return r.push(t, func() { k.SinkEvent(op, a, b, nil, false) })
}

func (r *refScheduler) Step() bool {
	for len(r.queue) > 0 {
		e := heap.Pop(&r.queue).(*refEvent)
		if e.dead {
			continue
		}
		r.now = e.at
		e.dead = true
		r.fired++
		e.fn()
		return true
	}
	return false
}

func (r *refScheduler) Run() {
	for r.Step() {
	}
}

func (r *refScheduler) RunUntil(deadline Time) {
	for {
		for len(r.queue) > 0 && r.queue[0].dead {
			heap.Pop(&r.queue)
		}
		if len(r.queue) == 0 || r.queue[0].at > deadline {
			if r.now < deadline {
				r.now = deadline
			}
			return
		}
		r.Step()
	}
}

// handle is what both schedulers' AtTimer return.
type handle interface {
	Cancel()
	Cancelled() bool
}

// scheduler is the surface the differential tests drive both
// implementations through.
type scheduler interface {
	Now() Time
	Fired() uint64
	Pending() int
	SetSink(Sink)
	NewLanes(k int) Lane
	At(t Time, fn func())
	AtSink(t Time, op uint8, a, b int32, p any, flag bool)
	LaneSink(l Lane, t Time, op uint8, a, b int32, p any, flag bool)
	AtTimer(t Time, k Sink, op uint8, a, b int32) handle
	Step() bool
	Run()
	RunUntil(deadline Time)
}

// pooled adapts *Scheduler to scheduler: its AtTimer returns a Timer
// that Cancel stops.
type pooled struct{ *Scheduler }

func (p pooled) AtTimer(t Time, k Sink, op uint8, a, b int32) handle {
	return timerHandle{p.Scheduler, p.Scheduler.AtTimer(t, k, op, a, b)}
}

// timerHandle is a Timer with its scheduler, as a handle.
type timerHandle struct {
	s *Scheduler
	t Timer
}

func (h timerHandle) Cancel()         { h.s.Stop(h.t) }
func (h timerHandle) Cancelled() bool { return !h.s.Armed(h.t) }

func newPooled() scheduler { return pooled{New()} }
func newRef() scheduler    { return &refScheduler{} }
