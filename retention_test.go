package scmp_test

import (
	"runtime"
	"testing"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// What a run may keep for its whole life, per input: the terms of
// TestRetainedHeapFollowsLiveState's bound.
const (
	// stepBytes is a netsim.Step, which its installed script holds.
	stepBytes = 24
	// recordBytes is an accounting-log record, which SCMP's m-router
	// keeps for billing (§II-C).
	recordBytes = 16
	// sendBytes is what CheckDelivery keeps for a data packet beyond its
	// step, since it answers for every packet for the network's life:
	// the 12-byte ledger record, the seq in Script.Sent (8 bytes and its
	// append headroom), and, for a packet sent across a membership
	// change, its router sets and its entry in the anomaly list. 49–72
	// bytes are measured here.
	sendBytes = 104
	// lsaBytes is MOSPF's seen slot per LSA, one per join or leave: a
	// 24-byte set header per (origin, seq), so that a late copy is
	// recognised, in per-origin slices that grow by append.
	lsaBytes = 48
	// retainSlack covers one partly filled log chunk (16 KB), the
	// routing rows a longer run reaches first (at most one per router
	// and table, about 1 KB each here) and allocation rounding.
	retainSlack = 64 << 10
)

// retention is one run of the retention probe and what it kept.
type retention struct {
	heap    int64 // live heap the finished run's network holds
	flips   int   // churn steps
	sends   int   // send steps
	records int   // accounting-log records
}

// retain runs the ROADMAP item 22 probe for horizon seconds: 40 of the
// 50 routers flap at 20 events/s in all while router 0 sends 4 packets
// a second, then 5 s settle.
func retain(g *topology.Graph, proto netsim.Protocol, horizon float64) retention {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := netsim.New(g, proto)
	members := make([]topology.NodeID, 0, 40)
	for _, v := range rng.New(3).Perm(g.N()) {
		if v != 0 && len(members) < cap(members) {
			members = append(members, topology.NodeID(v))
		}
	}
	c := n.InstallChurn(netsim.ChurnPlan{Group: 1, Members: members, Rate: 20, Duration: horizon, Seed: 5})
	sends := make([]netsim.Step, int(4*horizon))
	for i := range sends {
		sends[i] = netsim.Step{At: des.Time(float64(i)+0.5) / 4, Arg: 1000, Group: 1, Kind: netsim.Send}
	}
	n.InstallScript(sends)
	n.RunUntil(des.Time(horizon + 5))
	runtime.GC()
	runtime.ReadMemStats(&after)
	r := retention{heap: int64(after.HeapAlloc) - int64(before.HeapAlloc), flips: c.Events(), sends: len(sends)}
	if s, ok := proto.(*core.SCMP); ok {
		r.records = len(s.Accounting().Log())
	}
	runtime.KeepAlive(n)
	return r
}

// TestRetainedHeapFollowsLiveState: the heap a finished run keeps grows
// with its length only by what it must keep, its inputs and its named
// logs. Each protocol runs the probe for T and 4T, and the growth must
// stay within stepBytes per step, recordBytes per accounting record,
// sendBytes per data packet and, for MOSPF, lsaBytes per LSA. Scheduler
// state is no term: a script queues one instant at a time, so a run
// that kept one slab slot per queued instant (56 bytes) fails. Not
// parallel: it reads the whole heap.
func TestRetainedHeapFollowsLiveState(t *testing.T) {
	g, err := topology.Random(topology.DefaultRandom(50, 3), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	g = g.ScaleDelays(1e-3)
	const horizon = 100
	for _, tc := range []struct {
		name  string
		proto func() netsim.Protocol
		lsas  bool
	}{
		{"SCMP", func() netsim.Protocol { return core.New(core.Config{MRouter: 0, Kappa: 1.5}) }, false},
		{"DVMRP", func() netsim.Protocol { return dvmrp.New(dvmrp.DefaultPruneLifetime) }, false},
		{"MOSPF", func() netsim.Protocol { return mospf.New() }, true},
		{"CBT", func() netsim.Protocol { return cbt.New(0) }, false},
	} {
		short, long := retain(g, tc.proto(), horizon), retain(g, tc.proto(), 4*horizon)
		flips, sends := long.flips-short.flips, long.sends-short.sends
		limit := int64(stepBytes*(flips+sends) + recordBytes*(long.records-short.records) + sendBytes*sends + retainSlack)
		if tc.lsas {
			limit += int64(lsaBytes * flips)
		}
		grew := long.heap - short.heap
		t.Logf("%s: %d B at T, %d B at 4T: +%d B for %d flips, %d sends, %d records (limit %d B)",
			tc.name, short.heap, long.heap, grew, flips, sends, long.records-short.records, limit)
		if grew > limit {
			t.Errorf("%s: the retained heap grew by %d B from T to 4T, limit %d B", tc.name, grew, limit)
		}
	}
}
