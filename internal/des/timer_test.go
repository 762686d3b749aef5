package des

import (
	"math"
	"math/rand"
	"testing"
)

// timerLog is a Sink recording every timer it receives with the firing
// time.
type timerLog struct {
	s   *Scheduler
	got []timerHit
}

type timerHit struct {
	at   Time
	op   uint8
	a, b int32
}

func (l *timerLog) SinkEvent(op uint8, a, b int32, p any, flag bool) {
	if p != nil || flag {
		panic("timer delivered a payload")
	}
	l.got = append(l.got, timerHit{l.s.Now(), op, a, b})
}

// Timers interleave with closures, sink events and lanes in exact
// (time, seq) order, and a stopped timer never fires: the same schedule
// armed once as timers and once as closures making the same call
// produces the same trace, cancellations included.
func TestTimerOrderMatchesClosures(t *testing.T) {
	run := func(typed bool) []timerHit {
		s := New()
		s.SetSink(nopSink())
		lane := s.NewLanes(1)
		log := &timerLog{s: s}
		rng := rand.New(rand.NewSource(5))
		var timers []Timer
		for i := 0; i < 400; i++ {
			at := Time(rng.Intn(40)) // many exact ties
			op, a := uint8(i%7), int32(i)
			switch {
			case typed:
				timers = append(timers, s.AtTimer(at, log, op, a, -a))
			case i%5 != 0: // a closure cannot be cancelled: arm only the ones that fire
				s.At(at, func() { log.SinkEvent(op, a, -a, nil, false) })
			}
			if i%3 == 0 {
				s.AtSink(at, 0, 0, 0, nil, false)
				s.LaneSink(lane, Time(i/10), 0, 0, 0, nil, false)
			}
		}
		for i := 0; i < len(timers); i += 5 {
			s.Stop(timers[i])
		}
		s.Run()
		return log.got
	}
	typed, closures := run(true), run(false)
	if len(typed) != 320 || len(typed) != len(closures) {
		t.Fatalf("%d timers fired, %d closures; want 320 each", len(typed), len(closures))
	}
	for i := range typed {
		if typed[i] != closures[i] {
			t.Fatalf("dispatch %d: timer %+v, closure %+v", i, typed[i], closures[i])
		}
	}
}

// A handle outlives its timer safely: stopping a fired timer whose slot
// now holds a fresh one leaves the fresh one armed, and the zero Timer
// stops nothing.
func TestTimerStaleStopIsNoop(t *testing.T) {
	s := New()
	log := &timerLog{s: s}
	old := s.AtTimer(1, log, 1, 0, 0)
	s.Run()
	fresh := s.AtTimer(2, log, 2, 0, 0)
	if fresh.ref != old.ref {
		t.Fatalf("fresh timer in slot %d, want the recycled slot %d", fresh.ref-1, old.ref-1)
	}
	s.Stop(old)
	s.Stop(Timer{})
	s.Run()
	if len(log.got) != 2 || log.got[1].op != 2 {
		t.Fatalf("fired %+v, want both timers", log.got)
	}
	s.Stop(fresh) // fired: no-op
	stopped := s.AtTimer(3, log, 3, 0, 0)
	s.Stop(stopped)
	s.Stop(stopped) // twice: still a no-op
	s.Run()
	if len(log.got) != 2 || s.Fired() != 2 {
		t.Fatalf("a stopped timer fired: %+v (%d events)", log.got, s.Fired())
	}
}

// Arming, stopping and firing timers in steady state allocates nothing,
// and a NaN or past time is refused like every other entry point.
func TestTimerAllocFreeAndGuarded(t *testing.T) {
	s := New()
	log := &timerLog{s: s, got: make([]timerHit, 0, 4096)}
	step := func() {
		s.Stop(s.AtTimer(s.Now()+2, log, 0, 0, 0))
		s.AtTimer(s.Now()+1, log, 0, 0, 0)
		s.Step()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("timer arm + stop + dispatch allocates %.1f/op", avg)
	}
	for _, at := range []Time{Time(math.NaN()), s.Now() - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AtTimer(%v) at now=%v accepted", at, s.Now())
				}
			}()
			s.AtTimer(at, log, 0, 0, 0)
		}()
	}
}
