package netsim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// silentProto sends nothing, so a test drives the delivery ledger
// through DeliverLocal alone and the network never has events pending.
type silentProto struct{ nopMembers }

func (*silentProto) SendData(topology.NodeID, packet.GroupID, int, uint64) {}

// held counts the pooled router sets records and groups still hold.
func (n *Network) held() int { return int(n.used) - len(n.free) }

// TestLedgerFootprintFollowsInFlight: on a 1000-router graph, where one
// router set is 128 bytes, the ledger's router sets follow the packets
// still owed a delivery, not the packets sent. Thousands of packets that
// all complete, never more than a few in flight, leave one set held
// (the group's current snapshot) and a pool no larger than its peak; a
// packet owed to a member that has since left keeps its snapshot and
// reached set until Reset, which returns every set to the pool.
func TestLedgerFootprintFollowsInFlight(t *testing.T) {
	if s := unsafe.Sizeof(record{}); s > 16 {
		t.Fatalf("a ledger record is %d bytes, want at most 16", s)
	}
	n := New(lineGraph(1000), &silentProto{})
	members := []topology.NodeID{3, 500, 999}
	for _, m := range members {
		n.HostJoin(m, 1)
	}
	complete := func(seq uint64) {
		for _, m := range members {
			n.DeliverLocal(m, &Packet{Kind: packet.Data, Seq: seq})
		}
	}
	const sends, window = 3000, 4
	for s := uint64(1); s <= sends; s++ {
		if s > window {
			complete(s - window)
		}
		n.SendData(0, 1, 100)
	}
	for s := uint64(sends - window + 1); s <= sends; s++ {
		complete(s)
	}
	if len(n.refs) != window+1 || n.held() != 1 || len(n.odd) != 0 {
		t.Fatalf("after %d complete packets, %d in flight at most: pool %d sets, %d held, %d seqs with anomalies; want %d, 1, 0",
			sends, window, len(n.refs), n.held(), len(n.odd), window+1)
	}

	owed := n.SendData(0, 1, 100)
	n.DeliverLocal(3, &Packet{Kind: packet.Data, Seq: owed})
	n.DeliverLocal(500, &Packet{Kind: packet.Data, Seq: owed})
	n.HostLeave(999, 1)
	members = members[:2]
	for i := 0; i < 10; i++ {
		complete(n.SendData(0, 1, 100))
	}
	if missing, anomalous := n.CheckDelivery(owed); !slices.Equal(missing, []topology.NodeID{999}) || anomalous != nil {
		t.Fatalf("owed packet: missing=%v anomalous=%v, want [999] and none", missing, anomalous)
	}
	if n.held() != 3 { // the owed packet's snapshot and reached set, the group's new set
		t.Fatalf("%d sets held with one packet owed, want 3", n.held())
	}

	n.Reset(&silentProto{})
	if n.held() != 0 {
		t.Fatalf("%d sets held after Reset, want 0", n.held())
	}
	if NodeSet(n.words).Count() != 0 {
		t.Fatal("pooled sets not empty after Reset")
	}
	if missing, anomalous := n.CheckDelivery(owed); missing != nil || anomalous != nil {
		t.Fatalf("seq %d after Reset: missing=%v anomalous=%v, want no record", owed, missing, anomalous)
	}
}

// ledgerModel is the reference delivery ledger: three router sets per
// packet for its lifetime — the expected receivers, those delivered at
// least once and those delivered more than once.
type ledgerModel struct {
	routers int
	members map[packet.GroupID]NodeSet
	recs    [][3]NodeSet // seq s is recs[s-1]
}

func (m *ledgerModel) join(node topology.NodeID, g packet.GroupID) {
	if m.members[g] == nil {
		m.members[g] = NewNodeSet(m.routers)
	}
	m.members[g].Set(node)
}

func (m *ledgerModel) send(src topology.NodeID, g packet.GroupID) {
	exp := NewNodeSet(m.routers)
	copy(exp, m.members[g])
	exp.Clear(src)
	m.recs = append(m.recs, [3]NodeSet{exp, NewNodeSet(m.routers), NewNodeSet(m.routers)})
}

func (m *ledgerModel) deliver(node topology.NodeID, seq uint64) {
	if seq == 0 || seq > uint64(len(m.recs)) {
		return
	}
	if r := m.recs[seq-1]; r[1].Has(node) {
		r[2].Set(node)
	} else {
		r[1].Set(node)
	}
}

func (m *ledgerModel) check(seq uint64) (missing, anomalous []topology.NodeID) {
	if seq == 0 || seq > uint64(len(m.recs)) {
		return nil, nil
	}
	exp, once, dup := m.recs[seq-1][0], m.recs[seq-1][1], m.recs[seq-1][2]
	for wi := range exp {
		missing = appendWord(missing, exp[wi]&^once[wi], wi)
		anomalous = appendWord(anomalous, dup[wi]|(once[wi]&^exp[wi]), wi)
	}
	return missing, anomalous
}

// sameIDs reports whether a and b hold the same ids in the same order
// and are both nil or both not.
func sameIDs(a, b []topology.NodeID) bool { return slices.Equal(a, b) && (a == nil) == (b == nil) }

// FuzzDeliveryLedger runs byte programs of joins, leaves, sends,
// deliveries (to any router, for any seq including 0 and unissued ones)
// and resets on a network of up to 130 routers, so router sets span
// three words, and after every operation compares CheckDelivery for
// every issued seq, seq 0 and the next unissued one with ledgerModel.
// The first byte sizes the network; each later operation is an opcode
// byte and its operand bytes.
func FuzzDeliveryLedger(f *testing.F) {
	f.Add([]byte{129, 0, 5, 0, 1, 5, 0, 2, 0, 3, 6, 1, 3, 128, 1, 3, 5, 1, 4, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 1, 0, 2, 0, 0, 3, 1, 0, 3, 0, 1, 3, 2, 1, 5})
	f.Add([]byte{100, 0, 64, 1, 0, 99, 1, 2, 64, 1, 5, 1, 1, 64, 1, 2, 0, 1, 4, 1, 3, 64, 2, 3, 99, 1, 5, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		routers := 1 + int(prog[0])%130
		n := New(lineGraph(routers), &silentProto{})
		m := &ledgerModel{routers: routers, members: make(map[packet.GroupID]NodeSet)}
		pos := 1
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		for pos < len(prog) {
			var op string
			switch code := next() % 6; code {
			case 0, 1: // join, leave
				node, g := topology.NodeID(next()%routers), packet.GroupID(1+next()%2)
				if code == 0 {
					op = fmt.Sprintf("join %d g%d", node, g)
					n.HostJoin(node, g)
					m.join(node, g)
				} else {
					op = fmt.Sprintf("leave %d g%d", node, g)
					n.HostLeave(node, g)
					if s := m.members[g]; s != nil {
						s.Clear(node)
					}
				}
			case 2: // send
				src, g := topology.NodeID(next()%routers), packet.GroupID(1+next()%2)
				op = fmt.Sprintf("send %d g%d", src, g)
				m.send(src, g)
				if seq := n.SendData(src, g, 100); seq != uint64(len(m.recs)) {
					t.Fatalf("%s: issued seq %d, want %d", op, seq, len(m.recs))
				}
			case 3: // deliver to any router, for seq 0, an issued seq or one past it
				node, seq := topology.NodeID(next()%routers), uint64(next()%(len(m.recs)+3))
				op = fmt.Sprintf("deliver %d seq %d", node, seq)
				n.DeliverLocal(node, &Packet{Kind: packet.Data, Seq: seq})
				m.deliver(node, seq)
			case 4: // deliver seq to every router it expects
				if len(m.recs) == 0 {
					continue
				}
				seq := 1 + uint64(next()%len(m.recs))
				op = fmt.Sprintf("complete seq %d", seq)
				for _, node := range m.recs[seq-1][0].AppendIDs(nil) {
					n.DeliverLocal(node, &Packet{Kind: packet.Data, Seq: seq})
					m.deliver(node, seq)
				}
			case 5:
				op = "reset"
				n.Reset(&silentProto{})
				m = &ledgerModel{routers: routers, members: make(map[packet.GroupID]NodeSet)}
			}
			for seq := uint64(0); seq <= uint64(len(m.recs))+1; seq++ {
				missing, anomalous := n.CheckDelivery(seq)
				wantMissing, wantAnomalous := m.check(seq)
				if !sameIDs(missing, wantMissing) || !sameIDs(anomalous, wantAnomalous) {
					t.Fatalf("after %s: seq %d missing=%v anomalous=%v, model %v and %v",
						op, seq, missing, anomalous, wantMissing, wantAnomalous)
				}
			}
		}
	})
}
