package session

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// grp is the group the tests adopt.
const grp packet.GroupID = 1000

func newMgr() (*Manager, *des.Scheduler) {
	sched := des.New()
	m := NewManager(sched)
	m.Adopt(grp)
	return m, sched
}

func TestMemberOnTimeAccounting(t *testing.T) {
	m, sched := newMgr()
	g := grp
	sched.RunUntil(10)
	_ = m.MemberJoined(g, 7)
	sched.RunUntil(25)
	_ = m.MemberLeft(g, 7)
	sched.RunUntil(40)
	_ = m.MemberJoined(g, 7)
	// Closed span 15s + open span since t=40; clock now at 40.
	if got := m.MemberOnTime(g, 7); got != 15 {
		t.Fatalf("on-time = %v, want 15", got)
	}
	sched.RunUntil(50)
	if got := m.MemberOnTime(g, 7); got != 25 {
		t.Errorf("on-time at t=50 = %v, want 25", got)
	}
}

func TestMemberJoinIdempotent(t *testing.T) {
	m, _ := newMgr()
	g := grp
	_ = m.MemberJoined(g, 1)
	_ = m.MemberJoined(g, 1)
	_ = m.MemberLeft(g, 1)
	_ = m.MemberLeft(g, 1)
	joins := 0
	for _, e := range m.Log() {
		if e.Kind == EventJoin {
			joins++
		}
	}
	if joins != 1 {
		t.Fatalf("join events = %d, want 1", joins)
	}
	if m.MemberJoined(999, 1) != ErrUnknownGroup {
		t.Fatal("unknown group accepted")
	}
}

func TestSessionLifecycle(t *testing.T) {
	m, sched := newMgr()
	g := grp
	id, err := m.StartSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RecordTraffic(g, id, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.RecordTraffic(g, id, 500); err != nil {
		t.Fatal(err)
	}
	info, err := m.Session(g, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Packets != 2 || info.Bytes != 1500 || info.StartedAt != sched.Now() {
		t.Fatalf("info = %+v", info)
	}
	if err := m.RecordTraffic(g, id+1, 1); err != ErrUnknownSession {
		t.Fatalf("traffic on an unknown session: %v", err)
	}
	if _, err := m.StartSession(999); err != ErrUnknownGroup {
		t.Fatalf("session in an unknown group: %v", err)
	}
}

func TestLogChronology(t *testing.T) {
	m, sched := newMgr()
	g := grp
	sched.RunUntil(1)
	_ = m.MemberJoined(g, 2)
	sched.RunUntil(2)
	_ = m.MemberLeft(g, 2)
	log := m.Log()
	if len(log) != 3 {
		t.Fatalf("log = %v", log)
	}
	for i := 1; i < len(log); i++ {
		if log[i].At < log[i-1].At {
			t.Fatal("log out of order")
		}
	}
	if log[0].Kind != EventAllocate || log[1].Kind != EventJoin || log[2].Kind != EventLeave {
		t.Fatalf("log kinds = %v %v %v", log[0].Kind, log[1].Kind, log[2].Kind)
	}
	// Log() must return a copy.
	log[0].Kind = EventSessionStart
	if m.Log()[0].Kind != EventAllocate {
		t.Fatal("log not copied")
	}
}

// The accounting log grows in chunks, so appending never copies what is
// already stored: 100k records cost their own 16 bytes each plus one
// partly filled chunk and the chunk index, not the ~2x of a doubling
// slice's abandoned arrays, nor the 32 bytes of an unpacked Event.
func TestLogAppendDoesNotCopy(t *testing.T) {
	const records = 100_000
	if size := unsafe.Sizeof(record{}); size != 16 {
		t.Fatalf("a stored record takes %d bytes, want 16", size)
	}
	m := NewManager(des.New())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < records; i++ {
		m.record(EventJoin, 1, topology.NodeID(i))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(1.25 * records * float64(unsafe.Sizeof(record{})))
	if got > limit {
		t.Fatalf("%d records allocated %d bytes, want at most %d", records, got, limit)
	}
}

// Log returns exactly the appended records, in order, whatever chunk
// they landed in: empty, one record, either side of every geometric
// chunk boundary and after several full 1024-record chunks. The copy it
// returns is the caller's own.
func TestLogAcrossChunkBoundaries(t *testing.T) {
	for _, k := range []int{7, 8, 63, 1 << 20} {
		if logChunk(k) != 1024 {
			t.Fatalf("logChunk(%d) = %d, want 1024", k, logChunk(k))
		}
	}
	checkpoints := []int{0, 1}
	end := 0
	for k := 0; k < 9; k++ {
		end += logChunk(k)
		checkpoints = append(checkpoints, end-1, end, end+1)
	}
	checkpoints = append(checkpoints, end+5*1024, end+5*1024+1)

	m := NewManager(des.New())
	var want []Event
	for _, c := range checkpoints {
		for len(want) < c {
			e := Event{Kind: EventJoin, Group: 1, Member: topology.NodeID(len(want))}
			m.record(e.Kind, e.Group, e.Member)
			want = append(want, e)
		}
		got := m.Log()
		if c == 0 {
			if got != nil {
				t.Fatalf("empty log = %v, want nil", got)
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after %d records Log() differs from the appended sequence", c)
		}
		got[0].Kind, got[c-1].Member = EventSessionStart, -7
		if again := m.Log(); !slices.Equal(again, want) {
			t.Fatalf("after %d records mutating Log()'s result changed the log", c)
		}
	}
}

// Every kind, member -1 and the extremes of the packed member range
// come back out of the log as they went in, at their times.
func TestLogRoundTripsPackedRecords(t *testing.T) {
	sched := des.New()
	m := NewManager(sched)
	var want []Event
	for i, member := range []topology.NodeID{-1, 0, 1, 7, maxMember - 1, maxMember} {
		for _, kind := range []EventKind{EventAllocate, EventJoin, EventLeave, EventSessionStart} {
			sched.RunUntil(des.Time(len(want)) / 4)
			g := packet.GroupID(1 + i)
			if kind == EventJoin {
				g = math.MaxUint32
			}
			m.record(kind, g, member)
			want = append(want, Event{At: sched.Now(), Kind: kind, Group: g, Member: member})
		}
	}
	if got := m.Log(); !slices.Equal(got, want) {
		t.Fatalf("Log() = %v\nwant %v", got, want)
	}
}

// A member the packing cannot hold panics, naming the member, instead of
// logging another member's id.
func TestLogRejectsUnpackableMember(t *testing.T) {
	for _, member := range []topology.NodeID{maxMember + 1, -2, math.MaxInt32, math.MinInt32} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("session: member %d outside", member); !strings.HasPrefix(msg, want) {
					t.Errorf("record of member %d: recovered %q, want a panic starting %q", member, msg, want)
				}
			}()
			m, _ := newMgr()
			_ = m.MemberJoined(grp, member)
		}()
	}
}

func TestEventKindString(t *testing.T) {
	if EventJoin.String() != "JOIN" || EventKind(99).String() != "EventKind(99)" {
		t.Fatal("EventKind names wrong")
	}
}

// Property: on-time is always nonnegative and never exceeds elapsed
// simulated time, under arbitrary join/leave sequences.
func TestPropertyOnTimeBounded(t *testing.T) {
	f := func(ops []bool) bool {
		m, sched := newMgr()
		g := grp
		for i, join := range ops {
			sched.RunUntil(des.Time(i + 1))
			if join {
				_ = m.MemberJoined(g, 1)
			} else {
				_ = m.MemberLeft(g, 1)
			}
		}
		got := m.MemberOnTime(g, 1)
		return got >= 0 && got <= sched.Now()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
