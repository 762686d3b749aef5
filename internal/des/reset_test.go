package des

import (
	"testing"

	"scmp/internal/rng"
)

// fwdSink forwards to the sink the running program installed: a reset
// scheduler keeps its one sink across programs.
type fwdSink struct{ k Sink }

func (f *fwdSink) SinkEvent(op uint8, a, b int32, p any, flag bool) { f.k.SinkEvent(op, a, b, p, flag) }

// reused runs one program after another on a single scheduler, which
// Reset returns to time zero in between.
type reused struct {
	pooled
	fwd *fwdSink
}

func (r reused) SetSink(k Sink) { r.fwd.k = k }

func newReused() reused {
	r := reused{pooled{New()}, &fwdSink{}}
	r.Scheduler.SetSink(r.fwd)
	return r
}

// TestResetMatchesNew: a random program traces on a scheduler reset
// after another random program exactly as on New() — every dispatch at
// the same time in the same order, the same clock, Fired and Pending
// after every operation — and Reset leaves the clock, seq, fired count
// and mark where New does.
func TestResetMatchesNew(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		rng := rng.New(seed)
		first, prog := make([]byte, 32+rng.Intn(480)), make([]byte, 32+rng.Intn(480))
		rng.Read(first)
		rng.Read(prog)
		want := runProgram(newPooled(), prog)

		r := newReused()
		runProgram(r, first)
		r.Reset()
		if s, z := r.Scheduler, New(); s.now != z.now || s.seq != z.seq || s.fired != z.fired || s.last != z.last {
			t.Fatalf("seed %d: after Reset now %g seq %d fired %d mark %d, New() has %g %d %d %d",
				seed, s.now, s.seq, s.fired, s.last, z.now, z.seq, z.fired, z.last)
		}
		got := runProgram(r, prog)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d record %d: after Reset %+v, on New() %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: after Reset traced %d records, on New() %d", seed, len(got), len(want))
		}
	}
}

// TestResetKeepsOldTimersDead: a Timer from before Reset neither reads
// as armed nor stops the timer that reuses its slot afterwards.
func TestResetKeepsOldTimersDead(t *testing.T) {
	s := New()
	var fired []int32
	k := funcSink(func(_ uint8, a, _ int32, _ any, _ bool) { fired = append(fired, a) })
	old := s.AtTimer(1, k, 0, 1, 0)
	s.Run()
	s.Reset()
	fresh := s.AtTimer(1, k, 0, 2, 0)
	if fresh.ref != old.ref {
		t.Fatalf("the new timer took slot %d, not the old timer's %d", fresh.ref-1, old.ref-1)
	}
	if s.Armed(old) {
		t.Fatal("a timer from before Reset reads as armed")
	}
	s.Stop(old)
	s.Run()
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("fired %v, want [1 2]: the old handle stopped the new timer", fired)
	}
}

// TestResetBusyPanics: Reset refuses a scheduler with events queued,
// with its own message.
func TestResetBusyPanics(t *testing.T) {
	s := New()
	s.AtTimer(1, funcSink(func(uint8, int32, int32, any, bool) {}), 0, 0, 0)
	defer func() {
		if r := recover(); r != "des: Reset of a scheduler with events pending" {
			t.Fatalf("Reset of a busy scheduler: recovered %v", r)
		}
	}()
	s.Reset()
}
