// Churn driver: a seeded membership workload generator. Each member in
// a ChurnPlan alternates between on-tree and off-tree episodes whose
// lengths are drawn from a Poisson (exponential gaps) or heavy-tailed
// (Pareto gaps) renewal process, producing sustained join/leave/rejoin
// pressure on the control plane — thousands of membership events per
// simulated second at the rates the churn experiment sweeps. Event
// times are pre-generated from one rng.Rand per member (split off the
// plan seed in member order), so a (plan, seed) pair always yields the
// byte-identical event schedule regardless of how the run is driven.
//
// Churn composes with the fault layer: InstallChurn and InstallFaults
// can both be applied to one network, so membership pressure runs under
// control-plane loss and link cuts (DESIGN.md §13).
package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// ChurnDist selects the inter-event gap distribution of a churn plan.
type ChurnDist int

const (
	// ChurnPoisson draws exponential gaps: memoryless arrivals, the
	// classic Poisson membership process.
	ChurnPoisson ChurnDist = iota
	// ChurnPareto draws Pareto gaps: heavy-tailed episodes where a few
	// members stay put for a long time while most flap rapidly.
	ChurnPareto
)

func (d ChurnDist) String() string {
	switch d {
	case ChurnPoisson:
		return "poisson"
	case ChurnPareto:
		return "pareto"
	default:
		return fmt.Sprintf("ChurnDist(%d)", int(d))
	}
}

// DefaultChurnAlpha is the Pareto shape used when ChurnPlan.Alpha is
// zero. Must exceed 1 or the gap distribution has no finite mean.
const DefaultChurnAlpha = 1.5

// ChurnPlan describes one churn workload: which members flap, how
// fast, with which gap distribution, and over which window.
type ChurnPlan struct {
	Group    packet.GroupID
	Members  []topology.NodeID // the flapping population, in draw order
	Rate     float64           // aggregate membership events per simulated second
	Dist     ChurnDist
	Alpha    float64 // Pareto shape; 0 = DefaultChurnAlpha; ignored for Poisson
	Start    float64 // first event no earlier than this time
	Duration float64 // events generated in [Start, Start+Duration)
	Seed     int64
}

// Validate reports the first rule the plan breaks on a network of
// routers nodes, nil when it breaks none. Every bound is finite: a NaN
// or infinite one never lets InstallChurn's generator reach the end of
// the window.
func (p ChurnPlan) Validate(routers int) error {
	if len(p.Members) == 0 {
		return errors.New("churn plan has no members")
	}
	for _, m := range p.Members {
		if m < 0 || int(m) >= routers {
			return fmt.Errorf("churn member %d out of range (%d routers)", m, routers)
		}
	}
	switch {
	case !(p.Rate > 0) || math.IsInf(p.Rate, 1):
		return fmt.Errorf("churn plan rate %g is not finite and > 0", p.Rate)
	case !(p.Duration > 0) || math.IsInf(p.Duration, 1):
		return fmt.Errorf("churn plan duration %g is not finite and > 0", p.Duration)
	case !(p.Start >= 0) || math.IsInf(p.Start, 1):
		return fmt.Errorf("churn plan start %g is not finite and >= 0", p.Start)
	case p.Dist == ChurnPareto && p.Alpha != 0 && (!(p.Alpha > 1) || math.IsInf(p.Alpha, 1)):
		return fmt.Errorf("Pareto churn needs alpha 0 (the default) or a finite alpha > 1 (finite mean), not %g", p.Alpha)
	}
	return nil
}

// Churn is one installed churn plan with its pre-generated event
// counts.
type Churn struct {
	plan    ChurnPlan
	events  int
	joins   int
	rejoins int
	leaves  int

	evs []churnEvent // the schedule in time order
}

// Plan returns the installed plan.
func (c *Churn) Plan() ChurnPlan { return c.plan }

// Events returns the total membership events generated.
func (c *Churn) Events() int { return c.events }

// Joins returns the first-time join events generated.
func (c *Churn) Joins() int { return c.joins }

// Rejoins returns the rejoin (join after a leave) events generated.
func (c *Churn) Rejoins() int { return c.rejoins }

// Leaves returns the leave events generated.
func (c *Churn) Leaves() int { return c.leaves }

// InstallChurn pre-generates the plan's membership schedule and queues
// it, in time order, on one scheduler lane: a drained lane an earlier
// install used, or a new one. Each member's flips are generated in time
// order into the lane's spare buffer, and the members' runs are merged
// into the drained lane's spent schedule, so reinstalling reuses both.
// The returned Churn reports the generated event mix. It panics with
// Validate's error on a plan that breaks a rule.
func (n *Network) InstallChurn(plan ChurnPlan) *Churn {
	if err := plan.Validate(n.G.N()); err != nil {
		panic("netsim: " + err.Error())
	}
	alpha := plan.Alpha
	if alpha == 0 {
		alpha = DefaultChurnAlpha
	}
	c := &Churn{plan: plan}
	// Aggregate Rate spread over the population: each member's renewal
	// process has mean gap population/Rate, so the expected event total
	// is Rate * Duration regardless of member count.
	mean := float64(len(plan.Members)) / plan.Rate
	// Pareto scale chosen so the gap mean matches the Poisson case:
	// E[gap] = xm*alpha/(alpha-1) = mean.
	xm := mean * (alpha - 1) / alpha
	end := plan.Start + plan.Duration
	cl := n.churnLane()
	var evs []churnEvent
	if cl.last != nil {
		evs, cl.last.evs = cl.last.evs[:0], nil
	}
	cl.last = c
	gen, runs := cl.spare[:0], cl.runs[:0]
	parent, r := rng.New(plan.Seed), rng.New(0)
	for _, m := range plan.Members {
		r.Seed(parent.Int63()) // the stream rng.Split(parent) would return, in a reused generator
		start := len(gen)
		on, joined := false, false
		for t := plan.Start; ; {
			var gap float64
			if plan.Dist == ChurnPareto {
				gap = xm / math.Pow(1-r.Float64(), 1/alpha)
			} else {
				gap = r.ExpFloat64() * mean
			}
			t += gap
			if t >= end {
				break
			}
			on = !on
			c.events++
			if on {
				if joined {
					c.rejoins++
				} else {
					c.joins++
					joined = true
				}
			} else {
				c.leaves++
			}
			gen = append(gen, churnEvent{t: t, member: int32(m), join: on})
		}
		if len(gen) > start {
			runs = append(runs, churnRun{next: int32(start), end: int32(len(gen))})
		}
	}
	evs = mergeChurnRuns(slices.Grow(evs, len(gen)), gen, runs)
	cl.spare, cl.runs = gen, runs
	c.evs = evs
	for i := 0; i < len(evs); {
		// Same-instant events collapse into one scheduler event.
		j := i + 1
		for j < len(evs) && evs[j].t == evs[i].t { //scmplint:ignore floatcmp — intentionally exact: only bit-identical timestamps may share a scheduler instant; near-ties must stay distinct events in time order
			j++
		}
		n.Sched.LaneSink(cl.lane, des.Time(evs[i].t), opChurn, int32(i), int32(j), c, false)
		i = j
	}
	return c
}

// churnRun is one member's flips in a generated schedule: gen[next:end],
// in time order.
type churnRun struct{ next, end int32 }

// mergeChurnRuns appends gen's events to dst in time order, keeping
// generation (member-major) order for exact-time ties — precisely the
// order the scheduler's insertion-sequence tie-break used to run them
// when each event was queued directly. Each run is already in that
// (time, index in gen) order, so a binary heap of run heads, ties going
// to the earlier index, merges them into the one order a sort on that
// total key gives. runs is consumed.
func mergeChurnRuns(dst, gen []churnEvent, runs []churnRun) []churnEvent {
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftChurnRun(gen, runs, i)
	}
	for len(runs) > 0 {
		r := &runs[0]
		dst = append(dst, gen[r.next])
		if r.next++; r.next == r.end {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftChurnRun(gen, runs, 0)
	}
	return dst
}

// siftChurnRun restores the heap order of runs below i.
func siftChurnRun(gen []churnEvent, runs []churnRun, i int) {
	less := func(a, b churnRun) bool {
		x, y := gen[a.next].t, gen[b.next].t
		return x < y || !(y < x) && a.next < b.next
	}
	for {
		c := 2*i + 1
		if c >= len(runs) {
			return
		}
		if c+1 < len(runs) && less(runs[c+1], runs[c]) {
			c++
		}
		if !less(runs[c], runs[i]) {
			return
		}
		runs[i], runs[c] = runs[c], runs[i]
		i = c
	}
}

// churnLane is one scheduler lane churn schedules queue on, with the
// schedule installed on it last, and the spare buffer and run heap the
// next install generates into.
type churnLane struct {
	lane  des.Lane
	last  *Churn
	spare []churnEvent
	runs  []churnRun
}

// churnLane returns a drained churn lane, opening one when every lane
// an earlier install used still has events queued.
func (n *Network) churnLane() *churnLane {
	for i := range n.churnLanes {
		if cl := &n.churnLanes[i]; n.Sched.LaneEmpty(cl.lane) {
			return cl
		}
	}
	n.churnLanes = append(n.churnLanes, churnLane{lane: n.Sched.NewLanes(1)})
	return &n.churnLanes[len(n.churnLanes)-1]
}

// churnEvent is one pre-generated membership flip: member joins (or
// leaves) the group at simulated time t. 16 bytes (member is a
// topology.NodeID): a churn lane keeps two buffers of them, the
// schedule and the spare it is merged from.
type churnEvent struct {
	t      float64
	member int32
	join   bool
}

// dispatchChurn fires c's same-instant churn events i..j-1 in order,
// each through HostJoin or HostLeave.
func (n *Network) dispatchChurn(c *Churn, i, j int) {
	g := c.plan.Group
	for _, ev := range c.evs[i:j] {
		if ev.join {
			n.HostJoin(topology.NodeID(ev.member), g)
		} else {
			n.HostLeave(topology.NodeID(ev.member), g)
		}
	}
}

// --- Overload-protection metric taps ----------------------------------
//
// The protocol reports overload events through the network, naming the
// router where the event happened, mirroring DropData.

// NoteShed records a JOIN refused by admission control at router node.
func (n *Network) NoteShed(node topology.NodeID) { n.Metrics.OnShed() }

// NotePark records a request at router node exhausting its retry
// budget and parking.
func (n *Network) NotePark(node topology.NodeID) { n.Metrics.OnPark() }

// NoteParkRecover records a parked request at router node recovering.
func (n *Network) NoteParkRecover(node topology.NodeID) { n.Metrics.OnParkRecover() }

// NoteRefreshSkip records a suppressed soft-state refresh at router
// node (the m-router).
func (n *Network) NoteRefreshSkip(node topology.NodeID) { n.Metrics.OnRefreshSkip() }

// NoteRestructure records a tree restructuring computed at router node
// (the m-router).
func (n *Network) NoteRestructure(node topology.NodeID) { n.Metrics.OnRestructure() }
