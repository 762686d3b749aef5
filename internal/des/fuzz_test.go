package des

import (
	"math"
	"testing"

	"scmp/internal/rng"
)

// fuzzRecord is one line of a program's trace: a dispatched event (id >
// 0) at its firing time, or the scheduler's clock, Fired and Pending
// after a top-level operation (id 0).
type fuzzRecord struct {
	at             Time
	id             int
	fired, pending int
}

// fuzzTime maps a byte to a time not before base: the 1/8 grid, where
// times tie exactly; magnitudes from 1e-300 to 1e300; -0 when base is 0
// (a legal time at Now 0 that ties with 0); and +Inf.
func fuzzTime(base Time, b byte) Time {
	switch {
	case b < 128:
		return base + Time(b%32)/8
	case b < 240:
		m := Time(math.Pow(10, float64(b-128)*600/111-300))
		if m < base {
			return base + m
		}
		return m
	case b < 248:
		if base == 0 {
			return Time(math.Copysign(0, -1))
		}
		return base
	default:
		return Time(math.Inf(1))
	}
}

// runProgram interprets prog on s, one operation per byte plus its
// argument bytes: At, AtSink, AtTimer, stopping an earlier timer,
// LaneSink on one of three lanes, RunUntil a window that may stop short
// of the next event, Run, Step, Reserve of one to four sequence numbers,
// and AtSinkSeq on the oldest number reserved and not yet pushed — the
// cursor path a script takes, which pushes its next instant from the
// dispatch of the one before. An event with an odd id runs the
// next operation from inside its callback (the scheduling ones only:
// there RunUntil, Run and Step are skipped), so pushes also land
// mid-dispatch. Once prog is spent the queue is drained.
func runProgram(s scheduler, prog []byte) []fuzzRecord {
	var trace []fuzzRecord
	var handles []handle
	var tail [3]Time
	var reserved []uint64
	lanes := s.NewLanes(len(tail))
	pc, ids := 0, 0
	arg := func() byte {
		if pc == len(prog) {
			return 0
		}
		pc++
		return prog[pc-1]
	}
	var op func(nested bool)
	fire := func(id int) {
		trace = append(trace, fuzzRecord{at: s.Now(), id: id})
		if id%2 == 1 && pc < len(prog) {
			op(true)
		}
	}
	sink := funcSink(func(_ uint8, a, _ int32, _ any, _ bool) { fire(int(a)) })
	s.SetSink(sink)
	op = func(nested bool) {
		code := arg()
		ids++
		id := ids
		switch code % 10 {
		case 0:
			s.At(fuzzTime(s.Now(), arg()), func() { fire(id) })
		case 1:
			s.AtSink(fuzzTime(s.Now(), arg()), 0, int32(id), 0, nil, false)
		case 2:
			handles = append(handles, s.AtTimer(fuzzTime(s.Now(), arg()), sink, 0, int32(id), 0))
		case 3:
			if i := int(arg()); len(handles) > 0 {
				handles[i%len(handles)].Cancel()
			}
		case 4:
			k := int(code/10) % len(tail)
			tail[k] = fuzzTime(max(tail[k], s.Now()), arg())
			s.LaneSink(lanes+Lane(k), tail[k], 0, int32(id), 0, nil, false)
		case 5:
			if d := arg(); !nested {
				s.RunUntil(s.Now() + Time(d%64)/16)
			}
		case 6:
			if !nested {
				s.Run()
			}
		case 7:
			if !nested {
				s.Step()
			}
		case 8:
			k := 1 + int(arg()%4)
			for seq := s.Reserve(k); k > 0; k-- {
				reserved = append(reserved, seq)
				seq++
			}
		case 9:
			if t := fuzzTime(s.Now(), arg()); len(reserved) > 0 {
				s.AtSinkSeq(t, reserved[0], 0, int32(id), 0, nil, false)
				reserved = reserved[1:]
			}
		}
	}
	snapshot := func() {
		trace = append(trace, fuzzRecord{at: s.Now(), fired: int(s.Fired()), pending: s.Pending()})
	}
	for pc < len(prog) {
		op(false)
		snapshot()
	}
	s.Run()
	snapshot()
	return trace
}

// FuzzRefEquivalence runs one byte program on the pooled scheduler and
// on the reference scheduler and demands identical traces: every
// dispatch at the same time in the same order, and the same clock,
// Fired and Pending after every top-level operation. The seeds are
// byte strings from TestRefEquivalence's generator (rng.New at seeds
// 0–15); `make smoke-fuzz` runs the fuzzer for ten seconds.
func FuzzRefEquivalence(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rng.New(seed)
		prog := make([]byte, 32+rng.Intn(480))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		fast, ref := runProgram(newPooled(), prog), runProgram(newRef(), prog)
		for i := range min(len(fast), len(ref)) {
			if fast[i] != ref[i] {
				t.Fatalf("record %d: pooled %+v, reference %+v", i, fast[i], ref[i])
			}
		}
		if len(fast) != len(ref) {
			t.Fatalf("pooled traced %d records, reference %d", len(fast), len(ref))
		}
	})
}
