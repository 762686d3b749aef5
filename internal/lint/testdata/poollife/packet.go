//golden:path scmp/internal/lint/testdata/fake/netsim

// Seeded pooled-packet lifetime violations for the poollife analyzer.
// The package path ends in "netsim", so the local Packet type stands in
// for the simulator's pooled packet. A *Packet is only read, passed as
// *Packet, held in a local or returned, and putPacket ends its function.
package netsim

type Packet struct {
	Kind int
	From int
}

type Network struct {
	pool []*Packet
	last *Packet
	all  []*Packet
	byID map[int]*Packet
}

// getPacket obeys the rule: it moves a pool entry into a local and
// returns it. putPacket is the pool itself, exempt by name.
func (n *Network) getPacket() *Packet {
	if k := len(n.pool); k > 0 {
		p := n.pool[k-1]
		n.pool = n.pool[:k-1]
		return p
	}
	return &Packet{}
}

func (n *Network) putPacket(p *Packet) { n.pool = append(n.pool, p) }

// A use after the release is flagged at the release: a statement runs
// after it.
func (n *Network) useAfterRelease() {
	pkt := n.getPacket()
	n.putPacket(pkt) // want "a later statement runs after putPacket"
	_ = pkt.Kind
}

func (n *Network) aliasUseAfterRelease() {
	pkt := n.getPacket()
	q := pkt
	n.putPacket(q) // want "a later statement runs after putPacket"
	_ = pkt.From
}

// A release followed by return on an early branch, and a release that
// ends the function, are the legal shapes.
func (n *Network) branchReleaseClean(drop bool) {
	pkt := n.getPacket()
	if drop {
		n.putPacket(pkt)
		return
	}
	pkt.From = 1
	n.putPacket(pkt)
}

// Reassigning after the release was a fresh lifetime to the old
// analyzer; the rule flags the release, which something follows.
func (n *Network) reassignAfterRelease() {
	pkt := n.getPacket()
	n.putPacket(pkt) // want "a later statement runs after putPacket"
	pkt = n.getPacket()
	pkt.Kind = 2
	n.putPacket(pkt)
}

func (n *Network) storeInField(pkt *Packet) {
	n.last = pkt // want "pooled packet pkt stored in n.last"
}

func (n *Network) storeInGlobal(pkt *Packet) {
	lastSeen = pkt // want "pooled packet pkt stored in lastSeen"
}

var lastSeen *Packet

func (n *Network) appendToSlice(pkt *Packet) {
	n.all = append(n.all, pkt) // want "pooled packet pkt passed to a variadic parameter of append"
}

func (n *Network) storeInMap(pkt *Packet) {
	n.byID[pkt.From] = pkt // want "pooled packet pkt stored in n.byID[pkt.From]"
}

func (n *Network) storeInLiteral(pkt *Packet) {
	batch := []*Packet{pkt} // want "pooled packet pkt stored in a composite literal"
	_ = batch
}

func (n *Network) sendOnChannel(pkt *Packet, ch chan *Packet) {
	ch <- pkt // want "pooled packet pkt sent on a channel"
}

var deferred func()

func (n *Network) capturedByClosure(pkt *Packet) {
	deferred = func() { _ = pkt.Kind } // want "pooled packet pkt captured by a closure"
}

// A sink-style type assertion yields a local *Packet; the release is
// flagged because the read follows it.
func (n *Network) assertedPayload(p any) {
	pkt := p.(*Packet)
	n.putPacket(pkt) // want "a later statement runs after putPacket"
	_ = pkt.Kind
}

// Passing the packet down the call stack and mutating its fields before
// release is the normal, legal handler shape.
func (n *Network) handlerClean(pkt *Packet) {
	pkt.From = 3
	n.inspect(pkt)
	if pkt != nil && *pkt == (Packet{}) {
		n.putPacket(pkt)
		return
	}
	n.putPacket(pkt)
}

func (n *Network) inspect(pkt *Packet) { _ = pkt.Kind }

// nil is no packet: storing it drops a reference.
func (n *Network) forget() *Network {
	n.last, n.byID[0] = nil, nil
	return &Network{last: nil}
}

// A handler laundering the packet through any: the keeper retains it.
type keeper struct{ last any }

func (k *keeper) remember(p any) { k.last = p }

func (n *Network) handlerKeeps(k *keeper, pkt *Packet) {
	k.remember(pkt) // want "pooled packet pkt passed as any"
}

func (n *Network) conversions(pkt *Packet) any {
	var held any = pkt // want "pooled packet pkt stored in held"
	_ = any(pkt)       // want "pooled packet pkt converted to any"
	trace(pkt)         // want "pooled packet pkt passed to a variadic parameter of trace"
	if pkt == nil {
		panic(pkt) // want "pooled packet pkt passed as interface"
	}
	_ = held
	return pkt // want "pooled packet pkt returned as any"
}

func trace(ps ...*Packet) {}

// A release inside a loop runs again on the next iteration.
func (n *Network) releaseInLoop(batch []*Packet) {
	for _, pkt := range batch {
		n.putPacket(pkt) // want "the enclosing loop runs after putPacket"
	}
}

// A release that ends a switch clause does not fall into the next
// clause; a statement after the switch still runs after it.
func (n *Network) releaseInSwitch(pkt *Packet, kind int) {
	switch kind {
	case 0:
		n.putPacket(pkt)
	default:
		n.putPacket(pkt)
	}
}

func (n *Network) statementAfterSwitch(pkt *Packet, kind int) bool {
	switch kind {
	case 0:
		n.putPacket(pkt)
		return false
	default:
		n.putPacket(pkt) // want "a later statement runs after putPacket"
	}
	return pkt.Kind > 0
}
