package netsim

import (
	"slices"
	"testing"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// echoProto records every packet it sees and can deliver data locally at
// configured member nodes.
type echoProto struct {
	net     *Network
	got     []recorded
	members map[topology.NodeID]bool
	onData  func(node topology.NodeID, pkt *Packet)
	joined  []topology.NodeID
	left    []topology.NodeID
}

type recorded struct {
	node topology.NodeID
	pkt  Packet
}

func (e *echoProto) Attach(n *Network) { e.net = n }
func (e *echoProto) HandlePacket(node topology.NodeID, pkt *Packet) {
	e.got = append(e.got, recorded{node, *pkt})
	if pkt.Kind == packet.Data && e.onData != nil {
		e.onData(node, pkt)
	}
}
func (e *echoProto) HostJoin(node topology.NodeID, g packet.GroupID) {
	e.joined = append(e.joined, node)
}
func (e *echoProto) HostLeave(node topology.NodeID, g packet.GroupID) { e.left = append(e.left, node) }
func (e *echoProto) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {
	for _, l := range e.net.G.Neighbors(src) {
		e.net.SendLink(src, l.To, &Packet{Kind: packet.Data, Group: g, Src: src, Seq: seq, Size: size, Created: e.net.Now()})
	}
}

func lineGraph(n int) *topology.Graph {
	g := topology.New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), 2, 5)
	}
	return g
}

func TestSendLinkDelayAndAccounting(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	n.SendLink(0, 1, &Packet{Kind: packet.Join, Size: 64})
	n.Run()
	if len(p.got) != 1 {
		t.Fatalf("packets = %d", len(p.got))
	}
	if p.got[0].node != 1 || p.got[0].pkt.From != 0 {
		t.Fatalf("delivered at %d from %d", p.got[0].node, p.got[0].pkt.From)
	}
	if n.Sched.Now() != 2 {
		t.Fatalf("clock = %v, want link delay 2", n.Sched.Now())
	}
	if n.Metrics.ProtocolOverhead() != 5 {
		t.Fatalf("protocol overhead = %g, want link cost 5", n.Metrics.ProtocolOverhead())
	}
}

// Resetting the collector of a live network between phases must leave
// it usable: the second phase's link loads and overheads are read back
// alone, with nothing of the first phase and no lost link registration.
func TestMetricsResetBetweenPhases(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)

	// Join phase: one JOIN unicast 2 -> 0 crosses both links.
	n.SendUnicast(2, &Packet{Kind: packet.Join, Dst: 0, Size: 64})
	n.Run()
	if n.Metrics.ProtocolOverhead() != 10 || n.Metrics.LinkLoad(1, 2) != 1 {
		t.Fatalf("join phase: overhead %g, load(1,2) %d", n.Metrics.ProtocolOverhead(), n.Metrics.LinkLoad(1, 2))
	}

	n.Metrics.Reset()

	// Data phase: one data packet crosses 0 -> 1 only.
	n.SendData(0, 1, 1000)
	n.Run()
	m := n.Metrics
	if m.LinkLoad(0, 1) != 1 || m.LinkLoad(1, 2) != 0 {
		t.Fatalf("data phase loads: (0,1)=%d (1,2)=%d, want 1 and 0", m.LinkLoad(0, 1), m.LinkLoad(1, 2))
	}
	if id, load := m.MaxLinkLoad(); id.A != 0 || id.B != 1 || load != 1 {
		t.Fatalf("MaxLinkLoad = %v/%d, want {0 1}/1", id, load)
	}
	if m.DataOverhead() != 5 || m.ProtocolOverhead() != 0 {
		t.Fatalf("data phase overhead: data %g protocol %g, want 5 and 0", m.DataOverhead(), m.ProtocolOverhead())
	}
}

func TestSendLinkNonAdjacentPanics(t *testing.T) {
	n := New(lineGraph(3), &echoProto{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.SendLink(0, 2, &Packet{Kind: packet.Join})
}

func TestSendUnicastTunnelsThroughIntermediates(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(4), p)
	n.SendUnicast(0, &Packet{Kind: packet.Join, Dst: 3, Size: 64})
	n.Run()
	// The protocol must see the packet only at the destination…
	if len(p.got) != 1 || p.got[0].node != 3 {
		t.Fatalf("got = %+v, want single delivery at 3", p.got)
	}
	// …with the previous hop visible…
	if p.got[0].pkt.From != 2 {
		t.Fatalf("From = %d, want 2", p.got[0].pkt.From)
	}
	// …but every link crossing accounted (3 links x cost 5).
	if n.Metrics.ProtocolOverhead() != 15 {
		t.Fatalf("protocol overhead = %g, want 15", n.Metrics.ProtocolOverhead())
	}
	if n.Sched.Now() != 6 {
		t.Fatalf("clock = %v, want 6", n.Sched.Now())
	}
}

func TestSendUnicastToSelf(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	n.SendUnicast(1, &Packet{Kind: packet.Leave, Dst: 1})
	n.Run()
	if len(p.got) != 1 || p.got[0].node != 1 {
		t.Fatalf("got = %+v", p.got)
	}
	if n.Metrics.ProtocolOverhead() != 0 {
		t.Fatal("self-delivery must not touch any link")
	}
}

func TestMembershipGroundTruth(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	n.HostJoin(2, 9)
	n.HostJoin(0, 9)
	n.HostJoin(0, 7)
	if got := n.Members(9); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Members(9) = %v", got)
	}
	if !n.IsMember(0, 7) || n.IsMember(2, 7) {
		t.Fatal("IsMember wrong")
	}
	n.HostLeave(0, 9)
	if got := n.Members(9); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Members(9) after leave = %v", got)
	}
	if len(p.joined) != 3 || len(p.left) != 1 {
		t.Fatalf("protocol callbacks: %d joins, %d leaves", len(p.joined), len(p.left))
	}
}

func TestDeliveryTracking(t *testing.T) {
	p := &echoProto{members: map[topology.NodeID]bool{1: true, 2: true}}
	p.onData = func(node topology.NodeID, pkt *Packet) {
		if p.members[node] {
			p.net.DeliverLocal(node, pkt)
		}
		// naive flood one more hop to reach node 2 on the line
		if node == 1 {
			p.net.SendLink(1, 2, pkt)
		}
	}
	n := New(lineGraph(3), p)
	n.HostJoin(1, 5)
	n.HostJoin(2, 5)
	seq := n.SendData(0, 5, 1000)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
	if n.Metrics.Delivered() != 2 {
		t.Fatalf("delivered = %d", n.Metrics.Delivered())
	}
	// End-to-end delay to node 2 is two hops at delay 2.
	if n.Metrics.MaxEndToEndDelay() != 4 {
		t.Fatalf("max delay = %g, want 4", n.Metrics.MaxEndToEndDelay())
	}
	// Data overhead: links 0-1 and 1-2, cost 5 each.
	if n.Metrics.DataOverhead() != 10 {
		t.Fatalf("data overhead = %g, want 10", n.Metrics.DataOverhead())
	}
}

func TestCheckDeliveryDetectsProblems(t *testing.T) {
	p := &echoProto{}
	p.onData = func(node topology.NodeID, pkt *Packet) {
		// Deliver twice at node 1 (anomaly), never at node 2 (missing).
		if node == 1 {
			p.net.DeliverLocal(node, pkt)
			p.net.DeliverLocal(node, pkt)
		}
	}
	n := New(lineGraph(3), p)
	n.HostJoin(1, 5)
	n.HostJoin(2, 5)
	seq := n.SendData(0, 5, 100)
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 1 || missing[0] != 2 {
		t.Fatalf("missing = %v, want [2]", missing)
	}
	if len(anomalous) != 1 || anomalous[0] != 1 {
		t.Fatalf("anomalous = %v, want [1]", anomalous)
	}
}

func TestSenderExcludedFromExpected(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	n.HostJoin(0, 5)
	seq := n.SendData(0, 5, 100) // the only member is the sender itself
	n.Run()
	missing, anomalous := n.CheckDelivery(seq)
	if len(missing) != 0 || len(anomalous) != 0 {
		t.Fatalf("missing=%v anomalous=%v", missing, anomalous)
	}
}

func TestCheckDeliveryUnknownSeq(t *testing.T) {
	n := New(lineGraph(2), &echoProto{})
	missing, anomalous := n.CheckDelivery(42)
	if missing != nil || anomalous != nil {
		t.Fatal("unknown seq should yield nils")
	}
}

// The delivery ledger is indexed by seq-1. Seq 0 (a packet that is not
// a tracked data packet) and seqs SendData never issued have no record:
// DeliverLocal ignores them and CheckDelivery reports nothing, while the
// issued packets' records see exactly their own deliveries.
func TestDeliveryLedgerSeqs(t *testing.T) {
	n := New(lineGraph(3), &echoProto{})
	n.HostJoin(1, 5)
	n.HostJoin(2, 5)
	for i := 0; i < 2; i++ {
		n.SendData(0, 5, 100) // seqs 1 and 2
	}
	n.Run()
	for _, tc := range []struct {
		seq     uint64
		tracked bool
	}{
		{0, false},
		{1, true},
		{2, true},
		{3, false},
		{1 << 63, false},
		{^uint64(0), false},
	} {
		n.DeliverLocal(1, &Packet{Kind: packet.Data, Seq: tc.seq})
		missing, anomalous := n.CheckDelivery(tc.seq)
		if !tc.tracked {
			if missing != nil || anomalous != nil {
				t.Errorf("seq %d: record missing=%v anomalous=%v, want none", tc.seq, missing, anomalous)
			}
			continue
		}
		if len(missing) != 1 || missing[0] != 2 || len(anomalous) != 0 {
			t.Errorf("seq %d: missing=%v anomalous=%v, want missing [2] only", tc.seq, missing, anomalous)
		}
	}
}

// The ledger stores records in chunks of 8 doubling to 1024. On a
// 130-router line a router set spans three words, and every seq gets
// its own expected set and delivery pattern — incomplete, complete,
// duplicates before and after completion, a delivery to the sender —
// so a record read through the wrong chunk or offset shows up as a
// wrong answer. Seqs either side of every chunk boundary are exact;
// seq 0, and seqs past the last issued one (inside the last chunk or
// beyond it), have no record.
func TestDeliveryLedgerAcrossBlocks(t *testing.T) {
	const sends = 2100 // into chunk 8, the second of 1024
	n := New(lineGraph(130), &silentProto{})
	a := func(s uint64) topology.NodeID { return topology.NodeID(1 + s%64) }
	b := func(s uint64) topology.NodeID { return topology.NodeID(65 + (5*s)%64) }
	for s := uint64(1); s <= sends; s++ {
		n.HostJoin(a(s), 5)
		n.HostJoin(b(s), 5)
		if got := n.SendData(0, 5, 100); got != s {
			t.Fatalf("SendData issued seq %d, want %d", got, s)
		}
		n.HostLeave(a(s), 5)
		n.HostLeave(b(s), 5)
	}
	for k, c := range n.records {
		if want := 8 << min(k, 7); len(c) != want {
			t.Errorf("chunk %d holds %d records, want %d", k, len(c), want)
		}
	}
	if len(n.records) != 9 {
		t.Errorf("%d sends filled %d chunks, want 9", sends, len(n.records))
	}
	deliver := func(node topology.NodeID, s uint64) { n.DeliverLocal(node, &Packet{Kind: packet.Data, Seq: s}) }
	for s := uint64(sends); s >= 1; s-- {
		deliver(a(s), s)
		if s%2 == 1 {
			deliver(a(s), s) // a duplicate while b(s) is still owed
		}
		if s%3 == 0 {
			deliver(b(s), s) // complete
		}
		if s%6 == 0 {
			deliver(b(s), s) // a duplicate after completion
		}
		if s%5 == 0 {
			deliver(0, s) // the sender is never expected
		}
	}
	// The first seq, the last and first of each pair of adjacent chunks,
	// and the last seq.
	for _, s := range []uint64{1, 8, 9, 24, 25, 56, 57, 120, 121, 248, 249, 504, 505, 1016, 1017, 2040, 2041, sends} {
		var wantMissing, wantOdd []topology.NodeID
		if s%3 != 0 {
			wantMissing = []topology.NodeID{b(s)}
		}
		if s%5 == 0 {
			wantOdd = append(wantOdd, 0)
		}
		if s%2 == 1 {
			wantOdd = append(wantOdd, a(s))
		}
		if s%6 == 0 {
			wantOdd = append(wantOdd, b(s))
		}
		missing, anomalous := n.CheckDelivery(s)
		if !slices.Equal(missing, wantMissing) || !slices.Equal(anomalous, wantOdd) {
			t.Errorf("seq %d: missing=%v anomalous=%v, want %v and %v", s, missing, anomalous, wantMissing, wantOdd)
		}
	}
	for _, s := range []uint64{0, sends + 1, 3063, 3064, 1 << 40} {
		if r := n.record(s); r != nil {
			t.Errorf("record(%d) = %+v, want nil", s, *r)
		}
	}
}

func TestFiniteBandwidthAddsTransmission(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	n.Bandwidth = 100 // bytes/s: a 50-byte packet takes 0.5 s to transmit
	n.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 50})
	n.Run()
	// transmission 0.5 + propagation 2.
	if n.Sched.Now() != 2.5 {
		t.Fatalf("delivery at %v, want 2.5", n.Sched.Now())
	}
}

func TestFiniteBandwidthSerialisesLink(t *testing.T) {
	// Two back-to-back packets on the same link direction queue: the
	// second starts transmitting only when the first finishes.
	var arrivals []des.Time
	p2 := &echoProto{}
	n2 := New(lineGraph(2), p2)
	n2.Bandwidth = 100
	p2.onData = func(node topology.NodeID, pkt *Packet) {
		arrivals = append(arrivals, n2.Sched.Now())
	}
	n2.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 50, Seq: 1})
	n2.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 50, Seq: 2})
	n2.Run()
	if len(arrivals) != 2 || arrivals[0] != 2.5 || arrivals[1] != 3.0 {
		t.Fatalf("arrivals = %v, want [2.5 3.0]", arrivals)
	}
	// The reverse direction is an independent queue.
	p3 := &echoProto{}
	n3 := New(lineGraph(2), p3)
	n3.Bandwidth = 100
	var rev []des.Time
	p3.onData = func(node topology.NodeID, pkt *Packet) { rev = append(rev, n3.Sched.Now()) }
	n3.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 50, Seq: 1})
	n3.SendLink(1, 0, &Packet{Kind: packet.Data, Size: 50, Seq: 2})
	n3.Run()
	if len(rev) != 2 || rev[0] != 2.5 || rev[1] != 2.5 {
		t.Fatalf("bidirectional arrivals = %v, want both at 2.5", rev)
	}
}

func TestInfiniteBandwidthDefault(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(2), p)
	n.SendLink(0, 1, &Packet{Kind: packet.Data, Size: 1 << 20})
	n.Run()
	if n.Sched.Now() != 2 {
		t.Fatalf("delivery at %v, want propagation-only 2", n.Sched.Now())
	}
}

func TestTraceHook(t *testing.T) {
	p := &echoProto{}
	n := New(lineGraph(3), p)
	var crossings int
	n.Trace = func(from, to topology.NodeID, pkt *Packet) { crossings++ }
	n.SendUnicast(0, &Packet{Kind: packet.Join, Dst: 2})
	n.Run()
	if crossings != 2 {
		t.Fatalf("trace crossings = %d, want 2", crossings)
	}
}

// payloadProto checks every payload it receives against the bytes the
// sender encoded.
type payloadProto struct {
	echoProto
	want []string
	got  int
}

func (p *payloadProto) HandlePacket(node topology.NodeID, pkt *Packet) {
	if p.got >= len(p.want) || string(pkt.Payload) != p.want[p.got] {
		panic("payload changed in flight: " + string(pkt.Payload))
	}
	p.got++
}

// Every send copies the payload into the in-flight packet's own buffer:
// a sender may overwrite its scratch as soon as the send returns, and a
// steady-state send that carries a payload allocates nothing.
func TestSendCopiesPayload(t *testing.T) {
	p := &payloadProto{want: []string{"alpha", "bravo"}}
	n := New(lineGraph(3), p)
	scratch := []byte("alpha")
	n.SendLink(0, 1, &Packet{Kind: packet.Join, Payload: scratch, Size: 64})
	copy(scratch, "bravo")
	n.SendUnicast(0, &Packet{Kind: packet.Join, Dst: 2, Payload: scratch, Size: 64})
	copy(scratch, "XXXXX")
	n.Run()
	if p.got != 2 {
		t.Fatalf("%d packets delivered, want 2", p.got)
	}
	copy(scratch, "delta")
	p.want, p.got = []string{"delta"}, 0
	send := func() {
		n.SendLink(1, 2, &Packet{Kind: packet.Join, Payload: scratch, Size: 64})
		n.Run()
		p.got = 0
	}
	send()
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Fatalf("a payload-carrying send allocates %.1f/op at steady state", avg)
	}
}
