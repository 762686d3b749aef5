// Package des implements a deterministic discrete-event scheduler.
//
// It is the execution substrate for the network simulator (the offline
// replacement for NS-2 used throughout this reproduction). Events are
// ordered by simulated time; ties are broken by insertion sequence so a
// simulation run is bit-reproducible regardless of map iteration order or
// host scheduling.
//
// The scheduler is allocation-free in steady state: queued events live in
// a pooled slab of fixed-size slots recycled through a free list, and
// their (time, seq, slot) entries wait in a two-tier queue — a 4-ary
// min-heap of the entries at or before a moving mark, and 64 radix
// buckets, keyed by the highest bit in which an entry's time differs
// from the mark, for the later ones, so far-future timers stay out of
// the per-event sift. No container/heap interface boxing, no per-event
// garbage. Every event is typed. A sink event (SetSink / AtSink)
// carries a small fixed argument tuple to the scheduler's one sink
// instead of a func value, and returns no handle. A stream of sink
// events whose times never decrease (the packets in flight on one link)
// can queue on a FIFO lane (NewLanes / LaneSink): only the lane's head
// is queued, so the queue holds one entry per busy link instead of one
// per packet. A stream known in advance (a script of timed inputs) need
// not be held at all: it reserves its sequence numbers (Reserve) and
// queues each event from the dispatch of the one before (AtSinkSeq), so
// it holds one slot and one queue entry whatever its length. The one
// cancellable event is a timer (AtTimer / Stop), a typed event for a
// sink of the caller's choosing: the protocol control plane arms its
// retransmission, refresh and service-completion deadlines this way,
// behind a value handle, so arming one allocates nothing. See DESIGN.md
// §10 for the free-list safety, queue, lane and reserved-sequence
// ordering arguments.
package des

import (
	"math"
	"math/bits"
)

// Time is simulated time in seconds.
type Time float64

// Sink receives typed events scheduled with AtSink. The argument tuple
// (op, a, b, p, flag) is opaque to the scheduler; the simulator packs a
// delivery descriptor into it (operation code, endpoints, packet
// pointer, loss flag) so the per-hop event carries no closure.
type Sink interface {
	SinkEvent(op uint8, a, b int32, p any, flag bool)
}

// Timer is the value handle of a typed timer (AtTimer): the slot the
// timer lives in and the generation it was issued for. A handle kept
// past its timer's firing is safe — once the slot is recycled the
// generations diverge and Stop degrades to a no-op. The zero Timer is
// no timer.
type Timer struct {
	ref int32 // slot + 1; 0 for the zero Timer
	gen uint32
}

// node is one pooled event slot. gen increments every time the slot is
// recycled, invalidating any outstanding Timer handles and (under the
// invariants build tag) proving the queue never dispatches a stale slot.
// A lane event (kLane) also keeps its own (time, seq) key, its lane and
// the slot after it on that lane, since only the lane's head has a queue
// entry. 56 bytes.
type node struct {
	gen  uint32
	dead bool
	kind uint8 // kSink, kLane or kTimer
	op   uint8
	flag bool
	a, b int32
	lane Lane
	next int32 // kLane: the next event's slot + 1 on the lane, 0 at the tail
	at   Time  // kLane
	seq  uint64
	p    any // kTimer: the Sink the timer fires into
}

const (
	kSink uint8 = iota
	kLane
	kTimer
)

// entry is one queue element: the (time, seq) ordering key plus the
// slot the payload lives in. 24 bytes, moved by value during sifts — no
// pointer chasing in the comparison loop.
type entry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

// cell is one bucket-pool element: a far entry and the cell after it
// in its bucket, or on the free list, as index + 1 (0 at the end).
type cell struct {
	e    entry
	next int32
}

// Lane identifies a FIFO lane of sink events (NewLanes): a chain of
// kLane slots from its head, which is queued, to its tail.
type Lane int32

// Scheduler is a single-threaded discrete-event simulator. The zero value
// is ready to use.
type Scheduler struct {
	now   Time
	seq   uint64
	fired uint64

	// The two-tier queue (see key and refill). near is a 4-ary min-heap
	// of exactly the entries whose key is at most last. bucket[b] heads,
	// as cell + 1, the list in pool of the later entries whose key first
	// differs from last at bit b; mask marks the non-empty buckets,
	// pfree heads the pool's free list and far counts bucketed entries.
	near   []entry
	last   uint64
	mask   uint64
	bucket [64]int32
	pool   []cell
	pfree  int32
	far    int

	slab []node
	free []int32

	// tails holds each lane's tail slot + 1 (0: the lane is empty);
	// behind counts the lane events queued behind their lane's head,
	// which have no queue entry.
	tails  []int32
	behind int

	sink Sink
}

// New returns a fresh scheduler at time zero.
func New() *Scheduler { return &Scheduler{} }

// Reset returns a drained scheduler to time zero: the clock, the
// sequence counter, the fired count and the queue's mark start over, as
// in New. It keeps what a run sized — the slot slab and its free list,
// the lanes, the bucket-cell pool — and the slots' generations, so a
// Timer handle from before the reset stays dead. A run after Reset
// dispatches exactly what it would on a new scheduler: the order is
// (time, seq) and seq restarts at 0, while slot numbers are never
// observable. It panics unless Pending is 0.
func (s *Scheduler) Reset() {
	if s.Pending() != 0 {
		panic("des: Reset of a scheduler with events pending")
	}
	s.now, s.seq, s.fired, s.last = 0, 0, 0, 0
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been discarded, and lane events behind their
// lane's head). A sequence number reserved for an AtSinkSeq push that
// has not happened yet is no event: a script's later instants are not
// pending.
func (s *Scheduler) Pending() int {
	return len(s.near) + s.far + s.behind
}

// SetSink installs the receiver for AtSink events. One sink per
// scheduler; installing it twice panics (a silently replaced sink would
// reroute in-flight events).
func (s *Scheduler) SetSink(k Sink) {
	if s.sink != nil && k != s.sink {
		panic("des: sink installed twice")
	}
	s.sink = k
}

// alloc takes a slot from the free list (or grows the slab) and stamps
// it live. The caller fills the payload fields.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	s.slab = append(s.slab, node{})
	return int32(len(s.slab) - 1)
}

// recycle returns a slot to the free list. Bumping gen first invalidates
// every outstanding handle and queue entry stamped with the old
// generation.
func (s *Scheduler) recycle(slot int32) {
	nd := &s.slab[slot]
	nd.gen++
	nd.dead = false
	nd.p = nil
	s.free = append(s.free, slot)
}

// push enqueues an entry for a freshly filled slot.
func (s *Scheduler) push(t Time, slot int32) {
	e := entry{at: t, seq: s.seq, slot: slot, gen: s.slab[slot].gen}
	s.seq++
	s.insert(e)
}

// At schedules fn to run at absolute simulated time t. It arms a timer
// whose sink calls fn, so it orders, and panics on a past or NaN time,
// exactly as AtTimer does; it returns no handle, so it cannot be
// cancelled.
//
// Deprecated: compile shim for bench/, which is frozen outside benchmark
// PRs; the next benchmark PR moves it onto typed events and deletes At.
func (s *Scheduler) At(t Time, fn func()) { s.AtTimer(t, closure(fn), 0, 0, 0) }

// closure is the Sink At's timers fire into.
type closure func()

func (f closure) SinkEvent(uint8, int32, int32, any, bool) { f() }

// AtSink schedules a typed event for the installed sink at absolute
// time t. It is the closure-free fast path: the argument tuple is
// stored in the pooled slot, so a steady-state packet hop allocates
// nothing (a *Packet in p is a pointer-shaped interface — no boxing).
// Sink events return no handle; they cannot be cancelled.
func (s *Scheduler) AtSink(t Time, op uint8, a, b int32, p any, flag bool) {
	s.AtSinkSeq(t, s.Reserve(1), op, a, b, p, flag)
}

// Reserve takes the next k sequence numbers, the ones k AtSink calls
// made now would take, and returns the first, for AtSinkSeq.
func (s *Scheduler) Reserve(k int) uint64 {
	first := s.seq
	s.seq += uint64(k)
	return first
}

// AtSinkSeq is AtSink on a sequence number Reserve handed out: the
// event takes the place in (time, seq) order that AtSink would have
// given it at the reservation. So a stream of events at non-decreasing
// times, each on a higher number of one reserved block, can be queued
// one at a time, each from the dispatch of the one before, and it
// dispatches exactly as queueing it whole at the reservation would, on
// one queue entry. The caller pushes each number at most once, at a
// time not before the event whose dispatch pushes it. It panics on a
// past or NaN time and on a number not yet handed out.
func (s *Scheduler) AtSinkSeq(t Time, seq uint64, op uint8, a, b int32, p any, flag bool) {
	if !(t >= s.now) {
		panic("des: event scheduled in the past")
	}
	if s.sink == nil {
		panic("des: sink event without a sink installed")
	}
	if seq >= s.seq {
		panic("des: AtSinkSeq on a sequence number not reserved")
	}
	slot, nd := s.sinkSlot(kSink, op, a, b, p, flag)
	s.insert(entry{at: t, seq: seq, slot: slot, gen: nd.gen})
}

// AtTimer schedules a cancellable typed event at absolute time t: unless
// Stop cancels it first, k.SinkEvent(op, a, b, nil, false) runs then.
// k, op, a and b live in the pooled slot and the handle is a value, so
// arming a timer allocates nothing (k is stored, not boxed: it already is
// an interface). Timers order with every other event by (time, seq).
func (s *Scheduler) AtTimer(t Time, k Sink, op uint8, a, b int32) Timer {
	if !(t >= s.now) {
		panic("des: event scheduled in the past")
	}
	slot, nd := s.sinkSlot(kTimer, op, a, b, k, false)
	s.push(t, slot)
	return Timer{ref: slot + 1, gen: nd.gen}
}

// Stop cancels a pending timer. Stopping the zero Timer, or a timer that
// already fired or was already stopped, is a no-op.
func (s *Scheduler) Stop(t Timer) {
	if t.ref == 0 {
		return
	}
	if nd := &s.slab[t.ref-1]; nd.gen == t.gen {
		nd.dead = true
	}
}

// Armed reports whether timer t is still to fire: neither stopped nor
// fired.
func (s *Scheduler) Armed(t Timer) bool {
	if t.ref == 0 {
		return false
	}
	nd := &s.slab[t.ref-1]
	return nd.gen == t.gen && !nd.dead
}

// sinkSlot takes a slot and fills in a sink event of the given kind.
func (s *Scheduler) sinkSlot(kind, op uint8, a, b int32, p any, flag bool) (int32, *node) {
	slot := s.alloc()
	nd := &s.slab[slot]
	nd.kind, nd.op, nd.flag = kind, op, flag
	nd.a, nd.b, nd.p = a, b, p
	return slot, nd
}

// NewLanes opens k empty FIFO lanes and returns the first; the others
// are the k-1 Lanes after it. A lane lives as long as its scheduler and
// costs 4 bytes; its queued events live in the shared slot pool.
func (s *Scheduler) NewLanes(k int) Lane {
	first := Lane(len(s.tails))
	s.tails = append(s.tails, make([]int32, k)...)
	return first
}

// LaneSink schedules a typed sink event at absolute time t on lane l.
// Pushes onto one lane must come in non-decreasing time order: a time
// earlier than the lane's last queued event panics. Each event still
// takes its sequence number at push, so a lane is sorted by (time, seq)
// and its head is its minimum; only the head has a queue entry, and
// dispatch order is exactly the order AtSink would give.
func (s *Scheduler) LaneSink(l Lane, t Time, op uint8, a, b int32, p any, flag bool) {
	if !(t >= s.now) {
		panic("des: event scheduled in the past")
	}
	if s.sink == nil {
		panic("des: LaneSink without a sink installed")
	}
	tail := s.tails[l]
	if tail != 0 && !(t >= s.slab[tail-1].at) {
		panic("des: lane event out of order")
	}
	slot, nd := s.sinkSlot(kLane, op, a, b, p, flag)
	nd.lane, nd.next, nd.at, nd.seq = l, 0, t, s.seq
	if tail != 0 {
		s.slab[tail-1].next = slot + 1
		s.seq++
		s.behind++
	} else {
		s.push(t, slot)
	}
	s.tails[l] = slot + 1
}

// popLane dispatches the lane event at the near heap's root. The lane's
// next event, if any, is queued in its place: at or before the mark it
// takes the root's place and sifts down once — a pop and a later push
// in one pass, the path same-instant storms take — and later it goes
// to its bucket. Lane events have no handle, so they are never
// cancelled and never stale.
func (s *Scheduler) popLane(e entry, nd *node) {
	checkPop(s, e, nd)
	if nd.next != 0 {
		next := nd.next - 1
		nn := &s.slab[next]
		ne := entry{at: nn.at, seq: nn.seq, slot: next, gen: nn.gen}
		if k := key(ne.at); k <= s.last {
			s.siftDown(ne)
		} else {
			s.popRoot()
			s.toBucket(ne, k)
		}
		s.behind--
	} else {
		s.tails[nd.lane] = 0
		s.popRoot()
	}
	s.now = e.at
	s.fired++
	op, a, b, p, flag := nd.op, nd.a, nd.b, nd.p, nd.flag
	s.recycle(e.slot)
	s.sink.SinkEvent(op, a, b, p, flag)
}

// Step executes the single earliest pending event. It returns false when
// the queue is empty.
func (s *Scheduler) Step() bool {
	for len(s.near) > 0 || s.refill() {
		e := s.near[0]
		nd := &s.slab[e.slot]
		if nd.kind == kLane && e.gen == nd.gen {
			s.popLane(e, nd)
			return true
		}
		s.popRoot()
		checkPop(s, e, nd)
		if stale(e, nd) {
			// Same guard and same recycling rule as peek: a slot is
			// returned to the free list only by the entry that owns its
			// current generation.
			if e.gen == nd.gen {
				s.recycle(e.slot)
			}
			continue
		}
		s.now = e.at
		s.fired++
		// Copy the payload out and recycle before dispatching: the
		// callback may schedule (reusing this slot immediately — the
		// dominant pattern in chained forwarding) or run nested Steps.
		// The generation bump also means a timer's own Stop (or Armed)
		// from inside its callback sees it already fired.
		kind, op, a, b, p, flag := nd.kind, nd.op, nd.a, nd.b, nd.p, nd.flag
		s.recycle(e.slot)
		if kind == kTimer {
			p.(Sink).SinkEvent(op, a, b, nil, flag)
		} else {
			s.sink.SinkEvent(op, a, b, p, flag)
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with firing time <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		at, ok := s.peek()
		if !ok || at > deadline {
			// The queue drained or the next event is beyond the deadline:
			// the clock advances to the window's end.
			if s.now < deadline {
				s.now = deadline
			}
			return
		}
		s.Step()
	}
}

// stale reports whether a queue entry no longer addresses the live event
// it was pushed for: cancelled, or the slot was recycled out from under
// it (generation mismatch). Step and peek apply this same predicate, so
// the queue view peek/RunUntil act on always matches what Step would
// dispatch.
func stale(e entry, nd *node) bool {
	return e.gen != nd.gen || nd.dead
}

// peek reports the firing time of the earliest live event, discarding
// stale ones.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.near) > 0 || s.refill() {
		e := s.near[0]
		nd := &s.slab[e.slot]
		checkPeek(s, e, nd)
		if stale(e, nd) {
			s.popRoot()
			// Recycle only when the entry still owns its slot: on a
			// generation mismatch the slot already belongs to a later
			// event, and recycling it here would hand the same slot out
			// twice.
			if e.gen == nd.gen {
				s.recycle(e.slot)
			}
			continue
		}
		return e.at, true
	}
	return 0, false
}

// --- the two-tier queue -------------------------------------------------
//
// Any exact priority queue over the strict total order (time, seq)
// dispatches the same sequence, so this one changes no run's output.
// Entries at or before the mark last sit in the near heap; the rest sit
// in radix buckets (a monotone radix heap, Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990). Bucket b holds keys above last whose highest bit
// differing from last is b, so every key in bucket b is below every key
// in a higher bucket. When the near heap runs dry, refill moves the
// mark to the lowest bucket's minimum and re-places that bucket: each
// entry lands in the near heap or a strictly lower bucket, while the
// higher buckets keep their index, because the new mark agrees with the
// old one above bit b. The mark never decreases.

// key is the radix key of time t: its IEEE-754 bits, which order like
// the times for t >= 0. Clearing the sign bit maps -0 (legal at Now 0,
// where it ties with 0) onto +0.
func key(t Time) uint64 { return math.Float64bits(float64(t)) &^ (1 << 63) }

// insert queues e: in the near heap at or before the mark, in its
// bucket after it.
func (s *Scheduler) insert(e entry) {
	if k := key(e.at); k > s.last {
		s.toBucket(e, k)
		return
	}
	s.near = append(s.near, e) // amortised growth; capacity is retained, so the near heap stops growing at its peak depth
	s.siftUp(len(s.near) - 1)
}

// toBucket queues e, whose key k is above the mark, in a cell taken
// from the pool's free list (or a new one).
func (s *Scheduler) toBucket(e entry, k uint64) {
	c := s.pfree - 1
	if c >= 0 {
		s.pfree = s.pool[c].next
	} else {
		s.pool = append(s.pool, cell{}) // amortised growth; cells are recycled through pfree, so the pool stops growing at the peak far queue
		c = int32(len(s.pool) - 1)
	}
	s.pool[c].e = e
	s.link(c, k)
	s.far++
}

// link pushes cell c, with key k above the mark, onto its bucket.
func (s *Scheduler) link(c int32, k uint64) {
	b := bits.Len64(k^s.last) - 1
	s.pool[c].next = s.bucket[b]
	s.bucket[b] = c + 1
	s.mask |= 1 << b
}

// refill moves the mark to the minimum key of the lowest non-empty
// bucket and re-places that bucket's entries, which puts at least that
// minimum in the (empty) near heap. It reports false when every bucket
// is empty.
func (s *Scheduler) refill() bool {
	if s.mask == 0 {
		return false
	}
	b := bits.TrailingZeros64(s.mask)
	head := s.bucket[b]
	s.bucket[b] = 0
	s.mask &^= 1 << b
	last := key(s.pool[head-1].e.at)
	for c := s.pool[head-1].next; c != 0; c = s.pool[c-1].next {
		last = min(last, key(s.pool[c-1].e.at))
	}
	s.last = last
	for c := head; c != 0; {
		cl := &s.pool[c-1]
		next := cl.next
		if k := key(cl.e.at); k > last {
			s.link(c-1, k)
		} else {
			s.insert(cl.e)
			cl.next = s.pfree
			s.pfree = c
			s.far--
		}
		c = next
	}
	return true
}

// --- 4-ary min-heap over entry ------------------------------------------
//
// The near heap. Same (time, seq) order as the old container/heap
// implementation. 4-ary halves the tree depth versus binary (fewer cache
// lines per sift) and the entries are plain values, so sifts are
// memmoves — no interface calls.

func entryLess(a, b entry) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	return a.seq < b.seq
}

func (s *Scheduler) siftUp(i int) {
	h := s.near
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// popRoot removes the minimum entry (the caller has already read
// s.near[0]).
func (s *Scheduler) popRoot() {
	n := len(s.near) - 1
	e := s.near[n]
	s.near = s.near[:n]
	if n > 0 {
		s.siftDown(e)
	}
}

// siftDown replaces the root with e and restores heap order.
func (s *Scheduler) siftDown(e entry) {
	h := s.near
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[min]) {
				min = j
			}
		}
		if !entryLess(h[min], e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}
