package des

import (
	"math"
	"slices"
	"testing"
)

func nopSink() Sink { return funcSink(func(uint8, int32, int32, any, bool) {}) }

// A push earlier than the lane's last queued event panics; equal times
// are accepted (ties keep push order), and once the lane drains any
// time not in the past is a valid head again.
func TestLaneOutOfOrderPushPanics(t *testing.T) {
	s := New()
	s.SetSink(nopSink())
	l := s.NewLanes(1)
	s.LaneSink(l, 2, 0, 0, 0, nil, false)
	s.LaneSink(l, 2, 0, 0, 0, nil, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("pushing t=1 behind t=2 on one lane did not panic")
			}
		}()
		s.LaneSink(l, 1, 0, 0, 0, nil, false)
	}()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d after a refused push, want 2", got)
	}
	s.Run()
	s.LaneSink(l, 2, 0, 0, 0, nil, false) // drained: the old tail no longer binds
	other := s.NewLanes(1)
	s.LaneSink(other, 2, 0, 0, 0, nil, false) // lanes are independent
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
}

// Pending counts every queued event: loose ones and the lane events
// queued behind their lane's head, which have no queue entry.
func TestPendingCountsLaneEvents(t *testing.T) {
	s := New()
	s.SetSink(nopSink())
	a, b := s.NewLanes(1), s.NewLanes(1)
	for i := 0; i < 5; i++ {
		s.LaneSink(a, Time(i), 0, 0, 0, nil, false)
	}
	for i := 0; i < 3; i++ {
		s.LaneSink(b, Time(i), 0, 0, 0, nil, false)
	}
	s.At(1, func() {})
	if entries := len(s.near) + s.far; s.Pending() != 9 || entries != 3 {
		t.Fatalf("Pending = %d with %d queue entries, want 9 events on 3 entries", s.Pending(), entries)
	}
	for want := 8; want >= 0; want-- {
		s.Step()
		if s.Pending() != want {
			t.Fatalf("Pending = %d, want %d", s.Pending(), want)
		}
	}
	if s.tails[a] != 0 || s.tails[b] != 0 || s.Step() {
		t.Fatal("queue not drained")
	}
}

// A NaN time compares false against everything, so a guard written as
// t < now lets it through and the queue order silently breaks. Every
// scheduling entry point must refuse it, on the pooled scheduler and on
// the reference scheduler it is checked against.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	for _, tc := range []struct {
		name string
		push func(s scheduler, l Lane)
	}{
		{"At", func(s scheduler, _ Lane) { s.At(nan, func() {}) }},
		{"AtSink", func(s scheduler, _ Lane) { s.AtSink(nan, 0, 0, 0, nil, false) }},
		{"LaneSink empty lane", func(s scheduler, l Lane) { s.LaneSink(l, nan, 0, 0, 0, nil, false) }},
		{"LaneSink behind a head", func(s scheduler, l Lane) {
			s.LaneSink(l, 1, 0, 0, 0, nil, false)
			s.LaneSink(l, nan, 0, 0, 0, nil, false)
		}},
	} {
		for _, mk := range []func() scheduler{newPooled, newRef} {
			s := mk()
			s.SetSink(nopSink())
			l := s.NewLanes(1)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (%T): NaN time accepted", tc.name, s)
					}
				}()
				tc.push(s, l)
			}()
		}
	}
}

// A steady-state lane push plus its dispatch allocates nothing, and a
// lane that never drains holds no more slots than events queued on it.
func TestLaneAllocFree(t *testing.T) {
	s := New()
	s.SetSink(nopSink())
	l := s.NewLanes(1)
	for i := 0; i < 4; i++ {
		s.LaneSink(l, s.Now()+1, 0, 0, 0, nil, false)
	}
	step := func() {
		s.LaneSink(l, s.Now()+4, 0, 0, 0, nil, false)
		s.Step()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("lane push + dispatch allocates %.1f/op", avg)
	}
	if len(s.slab) > 5 {
		t.Fatalf("a lane never longer than 5 grew the slab to %d slots", len(s.slab))
	}
}

// A stream queued one event at a time, each pushed from the dispatch of
// the one before on a number reserved up front, dispatches exactly as
// the stream queued whole with AtSink would: among loose events queued
// before and after it that tie with it at every instant, and loose
// events its own dispatches push at their instant. It holds one queue
// entry at a time. A number not yet reserved and a past time panic.
func TestReservedSeqMatchesEagerQueueing(t *testing.T) {
	stream := []Time{1, 1, 2, 3, 3, 5}
	n := int32(len(stream))
	run := func(cursor bool) ([]int32, int) {
		s := New()
		var trace []int32
		var base uint64
		s.SetSink(funcSink(func(_ uint8, a, _ int32, _ any, _ bool) {
			trace = append(trace, a)
			if a >= n {
				return
			}
			if next := a + 1; cursor && next < n {
				s.AtSinkSeq(stream[next], base+uint64(next), 0, next, 0, nil, false)
			}
			s.AtSink(s.Now(), 0, 100+a, 0, nil, false)
		}))
		loose := func(id int32) {
			for _, at := range []Time{1, 2, 3, 5} {
				s.AtSink(at, 0, id, 0, nil, false)
				id++
			}
		}
		loose(200)
		if cursor {
			base = s.Reserve(len(stream))
			s.AtSinkSeq(stream[0], base, 0, 0, 0, nil, false)
		} else {
			for i, at := range stream {
				s.AtSink(at, 0, int32(i), 0, nil, false)
			}
		}
		loose(300)
		pending := s.Pending()
		s.Run()
		return trace, pending
	}
	eager, eagerPending := run(false)
	cursor, cursorPending := run(true)
	if !slices.Equal(cursor, eager) {
		t.Fatalf("cursor order %v, eager order %v", cursor, eager)
	}
	if eagerPending != 8+len(stream) || cursorPending != 8+1 {
		t.Fatalf("queued %d events eagerly and %d as a cursor, want %d and 9", eagerPending, cursorPending, 8+len(stream))
	}

	s := New()
	s.SetSink(nopSink())
	seq := s.Reserve(1)
	s.RunUntil(1)
	for _, c := range []struct {
		name string
		push func()
	}{
		{"an unreserved number", func() { s.AtSinkSeq(2, seq+1, 0, 0, 0, nil, false) }},
		{"a past time", func() { s.AtSinkSeq(0.5, seq, 0, 0, 0, nil, false) }},
		{"a NaN time", func() { s.AtSinkSeq(Time(math.NaN()), seq, 0, 0, 0, nil, false) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AtSinkSeq on %s did not panic", c.name)
				}
			}()
			c.push()
		}()
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after refused pushes, want 0", s.Pending())
	}
}
