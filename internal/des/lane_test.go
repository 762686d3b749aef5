package des

import (
	"math"
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
	if !s.LaneEmpty(a) || !s.LaneEmpty(b) || s.Step() {
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
		{"After", func(s scheduler, _ Lane) { s.After(nan, func() {}) }},
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
