// Package metrics accumulates the paper's three network-wide metrics
// (§IV-B): data overhead and protocol overhead, both measured in
// link-cost units per packet-link crossing, and maximum end-to-end
// delay over delivered data packets. Control bytes and per-kind packet
// counts are kept as supplementary detail.
package metrics

import (
	"scmp/internal/packet"
	"scmp/internal/topology"
)

// LinkID identifies an undirected link by its normalised endpoints.
type LinkID struct{ A, B topology.NodeID }

// MkLinkID normalises endpoints so both directions map to one link.
func MkLinkID(u, v topology.NodeID) LinkID {
	if u > v {
		u, v = v, u
	}
	return LinkID{u, v}
}

// Collector accumulates one simulation run's metrics. The zero value is
// ready to use.
//
// The per-kind counters are fixed-size arrays indexed by packet.Kind
// (kinds are dense from 0), and per-link load is a dense slice over the
// link table registered up front (UseDenseLinks), so the per-crossing
// hot path (OnLinkDense) touches no maps.
type Collector struct {
	dataUnits  float64
	protoUnits float64
	protoBytes int64
	crossings  [packet.NumKinds]int64

	denseIDs  []LinkID         // undirected link id per dense index
	denseLoad []int64          // crossings per dense index
	denseIdx  map[LinkID]int32 // reverse lookup for point queries

	delivered int64
	dropped   int64 // data-class packets discarded
	ctlDrops  int64 // control-class packets discarded or lost
	dropsKind [packet.NumKinds]int64
	maxDelay  float64

	recoveries  int64
	recoverySum float64
	recoveryMax float64

	// Overload-protection and churn counters (per-cause): JOINs shed by
	// admission control, requests parked after exhausting their retry
	// budget, parked requests that later recovered, soft-state TREE
	// refreshes suppressed as redundant, and tree restructurings.
	sheds        int64
	parks        int64
	parkRecovers int64
	refreshSkips int64
	restructures int64
}

// UseDenseLinks registers the run's undirected link table, each link
// once. ids[i] is the link the caller will report as dense index i to
// OnLinkDense. Call once before the run; the registration outlives
// Reset.
func (c *Collector) UseDenseLinks(ids []LinkID) {
	if c.denseLoad != nil {
		panic("metrics: dense link table registered twice")
	}
	c.denseIDs = append([]LinkID(nil), ids...)
	c.denseLoad = make([]int64, len(ids))
	c.denseIdx = make(map[LinkID]int32, len(ids))
	for i, id := range c.denseIDs {
		c.denseIdx[id] = int32(i)
	}
}

// OnLinkDense records one packet of the given kind and byte size
// crossing registered link uid, of the given cost.
func (c *Collector) OnLinkDense(uid int32, kind packet.Kind, cost float64, bytes int) {
	c.denseLoad[uid]++
	c.crossings[kind]++
	if packet.ClassOf(kind) == packet.ClassData {
		c.dataUnits += cost
	} else {
		c.protoUnits += cost
		c.protoBytes += int64(bytes)
	}
}

// OnDeliver records a data packet reaching one group member with the
// given end-to-end delay.
func (c *Collector) OnDeliver(delay float64) {
	c.delivered++
	if delay > c.maxDelay {
		c.maxDelay = delay
	}
}

// OnDrop records a packet of the given kind discarded before reaching
// its destination — an RPF failure or off-tree arrival for data, a
// lossy or dead link for any class. Data-class and control-class
// drops accumulate separately (a lost TREE subpacket is a routing
// fault, not a delivery fault), and a per-kind count is kept so fault
// experiments can report exactly which control messages the network
// ate.
func (c *Collector) OnDrop(kind packet.Kind) {
	c.dropsKind[kind]++
	if packet.ClassOf(kind) == packet.ClassData {
		c.dropped++
	} else {
		c.ctlDrops++
	}
}

// OnRecovery records one fault-recovery duration: the time from a
// fault to full delivery being restored, as measured by the fault
// experiment's probe stream.
func (c *Collector) OnRecovery(d float64) {
	c.recoveries++
	c.recoverySum += d
	if d > c.recoveryMax {
		c.recoveryMax = d
	}
}

// OnShed records one JOIN refused by m-router admission control.
func (c *Collector) OnShed() { c.sheds++ }

// OnPark records one reliable request that exhausted its retry budget
// and entered the degraded parked state.
func (c *Collector) OnPark() { c.parks++ }

// OnParkRecover records one parked request whose deferred re-attempt
// was finally acknowledged.
func (c *Collector) OnParkRecover() { c.parkRecovers++ }

// OnRefreshSkip records one soft-state TREE refresh suppressed because
// the group's entry changed within the last refresh interval.
func (c *Collector) OnRefreshSkip() { c.refreshSkips++ }

// OnRestructure records one tree restructuring (a membership change
// that rebuilt the whole tree rather than grafting a branch).
func (c *Collector) OnRestructure() { c.restructures++ }

// Sheds returns the number of admission-control JOIN refusals recorded.
func (c *Collector) Sheds() int64 { return c.sheds }

// Parks returns the number of retry-budget exhaustions recorded.
func (c *Collector) Parks() int64 { return c.parks }

// ParkRecovers returns the number of parked-request recoveries recorded.
func (c *Collector) ParkRecovers() int64 { return c.parkRecovers }

// RefreshSkips returns the number of suppressed TREE refreshes recorded.
func (c *Collector) RefreshSkips() int64 { return c.refreshSkips }

// Restructures returns the number of tree restructurings recorded.
func (c *Collector) Restructures() int64 { return c.restructures }

// DataOverhead returns the accumulated data overhead in link-cost units.
func (c *Collector) DataOverhead() float64 { return c.dataUnits }

// ProtocolOverhead returns the accumulated protocol overhead in
// link-cost units.
func (c *Collector) ProtocolOverhead() float64 { return c.protoUnits }

// ProtocolBytes returns total protocol bytes that crossed links.
//
//scmplint:ignore testonly — core's BenchmarkTreeVsBranch reports BRANCH's byte saving with it
func (c *Collector) ProtocolBytes() int64 { return c.protoBytes }

// Crossings returns how many times packets of kind k crossed a link.
func (c *Collector) Crossings(k packet.Kind) int64 { return c.crossings[k] }

// LinkLoad returns how many packets (all classes) crossed the
// undirected link {u,v}.
//
//scmplint:ignore testonly — netsim's tests check per-link traffic through it
func (c *Collector) LinkLoad(u, v topology.NodeID) int64 {
	if i, ok := c.denseIdx[MkLinkID(u, v)]; ok {
		return c.denseLoad[i]
	}
	return 0
}

// MaxLinkLoad returns the most-crossed link and its packet count, or a
// zero LinkID when nothing crossed any link. Ties go to the smallest
// LinkID (by A, then B).
func (c *Collector) MaxLinkLoad() (LinkID, int64) {
	var best LinkID
	var max int64
	for i, n := range c.denseLoad {
		id := c.denseIDs[i]
		if n > max || n == max && max > 0 && (id.A < best.A || id.A == best.A && id.B < best.B) {
			best, max = id, n
		}
	}
	return best, max
}

// Delivered returns the number of member deliveries recorded.
func (c *Collector) Delivered() int64 { return c.delivered }

// Dropped returns the number of discarded data-class packets recorded.
func (c *Collector) Dropped() int64 { return c.dropped }

// DroppedControl returns the number of discarded control-class packets
// — the count the self-healing machinery has to out-persist.
func (c *Collector) DroppedControl() int64 { return c.ctlDrops }

// DroppedByKind returns how many packets of kind k were discarded.
//
//scmplint:ignore testonly — netsim's and core's fault tests check which control messages were lost
func (c *Collector) DroppedByKind(k packet.Kind) int64 { return c.dropsKind[k] }

// Recoveries returns the number of fault recoveries recorded.
func (c *Collector) Recoveries() int64 { return c.recoveries }

// MeanRecovery returns the mean fault-recovery time, 0 when none.
func (c *Collector) MeanRecovery() float64 {
	if c.recoveries == 0 {
		return 0
	}
	return c.recoverySum / float64(c.recoveries)
}

// MaxRecovery returns the longest fault-recovery time observed.
func (c *Collector) MaxRecovery() float64 { return c.recoveryMax }

// MaxEndToEndDelay returns the maximum delivery delay observed.
func (c *Collector) MaxEndToEndDelay() float64 { return c.maxDelay }

// Reset zeroes every counter. A dense link registration made by
// UseDenseLinks survives with zeroed loads, so a network can keep
// reporting crossings by index after its collector is reset for the
// next run (netsim.Network.Reset).
func (c *Collector) Reset() {
	clear(c.denseLoad)
	*c = Collector{denseIDs: c.denseIDs, denseIdx: c.denseIdx, denseLoad: c.denseLoad}
}
