package des

import (
	"math"
	"testing"
)

// The bucket pool recycles its cells: a long schedule/fire run whose far
// queue never exceeds 11 entries must not grow the pool past 11 cells —
// the bucket-pool twin of TestSlabBoundedByPeakQueue.
func TestQueuePoolBoundedByPeak(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.At(s.Now()+1, func() {})
	}
	for i := 0; i < 10_000; i++ {
		s.At(s.Now()+1, func() {})
		s.Step()
	}
	s.Run()
	if len(s.pool) > 11 || len(s.near) > 0 || s.far != 0 || s.mask != 0 {
		t.Fatalf("pool grew to %d cells for a peak queue of 11 (near %d, far %d, mask %#x after the drain)", len(s.pool), len(s.near), s.far, s.mask)
	}
}

// -0 is a legal time at Now 0 and ties with 0: it dispatches in
// sequence order among the events at 0, ahead of every later event,
// exactly as the reference scheduler orders it.
func TestNegativeZeroTiesWithZero(t *testing.T) {
	negZero := Time(math.Copysign(0, -1))
	for _, mk := range []func() scheduler{newPooled, newRef} {
		s := mk()
		var got []int
		rec := func(id int) func() { return func() { got = append(got, id) } }
		s.At(0.5, rec(3))
		s.At(negZero, rec(1))
		s.At(0, rec(2))
		s.At(negZero, rec(4)) // a later push: after 2 at the shared instant
		s.Run()
		if want := []int{1, 2, 4, 3}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
			t.Fatalf("%T dispatched %v, want %v", s, got, want)
		}
	}
}

// shapeSink drives BenchmarkQueueShape: lane hops, timers that re-arm,
// and the storms' source. rng is a
// 64-bit LCG, so the drive costs no allocation and no math/rand call.
type shapeSink struct {
	s      *Scheduler
	rng    uint64
	lanes  Lane
	timers []Timer
	hops   int
	fanout bool
}

const (
	opHop uint8 = iota
	opTimer
	opStorm
)

// unit returns a uniform draw in [0, 1).
func (k *shapeSink) unit() float64 {
	k.rng = k.rng*6364136223846793005 + 1442695040888963407
	return float64(k.rng>>11) / (1 << 53)
}

// arm (re-)arms timer slot i 50 ms to 2 s ahead.
func (k *shapeSink) arm(i int32) {
	k.timers[i] = k.s.AtTimer(k.s.Now()+Time(0.05+1.95*k.unit()), k, opTimer, i, 0)
}

func (k *shapeSink) SinkEvent(op uint8, a, b int32, _ any, _ bool) {
	s := k.s
	switch op {
	case opHop:
		if k.fanout {
			// Lane a forwards to lanes 3a+1..3a+3, a tree of 80.
			for c := 3*a + 1; c <= 3*a+3 && c < 80; c++ {
				s.LaneSink(k.lanes+Lane(c), s.Now()+0.001, opHop, c, 0, nil, false)
			}
			return
		}
		s.LaneSink(k.lanes+Lane(a), s.Now()+Time(0.0005+0.001*k.unit()), opHop, a, 0, nil, false)
		// One hop in 800 settles a request early: its timer is stopped
		// (left queued, stale) and a fresh one armed.
		if k.hops++; k.hops%800 == 0 {
			i := int32(k.unit() * float64(len(k.timers)))
			s.Stop(k.timers[i])
			k.arm(i)
		}
	case opTimer:
		k.arm(a)
	case opStorm:
		// A batch of 64 packets enters the tree at one instant.
		for i := 0; i < 64; i++ {
			s.LaneSink(k.lanes, s.Now()+0.001, opHop, 0, 0, nil, false)
		}
		s.AtTimer(s.Now()+0.001, k, opStorm, 0, 0)
	}
}

// BenchmarkQueueShape is the scheduler's layer number: ns per
// dispatched event on the two queue shapes the benchmark workloads put
// on it, at 0 allocs/op.
//   - churn: churn_hardened's shape, whose queue averages 214 entries:
//     74 lane heads and 140 timers, 77 of them stopped. Here 74 busy
//     lanes carry ~1 ms hops, 63 timers are armed 50 ms to 2 s ahead,
//     and one hop in 800 stops a timer early and re-arms it, leaving
//     ~75 stale entries queued (reported as stale/op).
//   - fanout: data_fanout's shape. A batch of 64 packets a millisecond
//     floods a tree of 80 lanes with 1 ms hops, so every lane queues
//     64-event same-instant storms.
func BenchmarkQueueShape(b *testing.B) {
	for _, arm := range []string{"churn", "fanout"} {
		b.Run(arm, func(b *testing.B) {
			s := New()
			k := &shapeSink{s: s, rng: 1, fanout: arm == "fanout"}
			s.SetSink(k)
			if k.fanout {
				k.lanes = s.NewLanes(80)
				s.AtTimer(0, k, opStorm, 0, 0)
			} else {
				k.lanes = s.NewLanes(74)
				for l := int32(0); l < 74; l++ {
					s.LaneSink(k.lanes+Lane(l), Time(0.001*k.unit()), opHop, l, 0, nil, false)
				}
				k.timers = make([]Timer, 63)
				for i := range k.timers {
					k.arm(int32(i))
				}
			}
			for i := 0; i < 200_000; i++ { // reach the steady state
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(s.Pending()), "queued/op")
			if !k.fanout {
				b.ReportMetric(float64(s.Pending()-74-len(k.timers)), "stale/op")
			}
		})
	}
}
