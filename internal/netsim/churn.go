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
	seen := NewNodeSet(routers)
	for _, m := range p.Members {
		if m < 0 || int(m) >= routers {
			return fmt.Errorf("churn member %d out of range (%d routers)", m, routers)
		}
		if seen.Has(m) {
			return fmt.Errorf("churn member %d listed twice", m) // two renewal processes would flap it
		}
		seen.Set(m)
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

// InstallChurn pre-generates the plan's membership schedule and
// installs it as a script of join and leave steps in time order
// (InstallScript). Each member's flips are generated in time order into
// the storage of a drained script, and the members' runs are merged in
// place, so the schedule is held once and reinstalling reuses it. The
// returned Churn reports the generated event mix. It panics with
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
	sl, steps := n.scriptSlot()
	runs := sl.runs[:0]
	parent, r := rng.New(plan.Seed), rng.New(0)
	for _, m := range plan.Members {
		r.Seed(parent.Int63()) // the stream rng.Split(parent) would return, in a reused generator
		start := len(steps)
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
			kind := Leave
			if on {
				kind = Join
				if joined {
					c.rejoins++
				} else {
					c.joins++
					joined = true
				}
			} else {
				c.leaves++
			}
			steps = append(steps, Step{At: des.Time(t), Node: int32(m), Group: plan.Group, Kind: kind})
		}
		if len(steps) > start {
			runs = append(runs, churnRun{next: int32(start), end: int32(len(steps))})
		}
	}
	sl.runs = runs
	mergeChurnRuns(steps, runs)
	n.queue(sl, &Script{steps: steps})
	return c
}

// churnRun is one member's flips in a generated schedule:
// steps[next:end], in time order.
type churnRun struct{ next, end int32 }

// mergeChurnRuns puts steps, the members' runs back to back, in time
// order in place, keeping generation (member-major) order for
// exact-time ties — precisely the order the scheduler's
// insertion-sequence tie-break used to run them when each event was
// queued directly. Each run is already in that (time, index) order, so
// a binary heap of run heads, ties going to the earlier index, yields
// the one order a sort on that total key gives. The heap writes each
// step's place, plus one, into its Arg (a join or leave step has none,
// and the heap reads only At); the steps then swap into their places,
// each Arg back to 0, with no second buffer. runs is consumed.
func mergeChurnRuns(steps []Step, runs []churnRun) {
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftChurnRun(steps, runs, i)
	}
	for p := int32(1); len(runs) > 0; p++ {
		r := &runs[0]
		steps[r.next].Arg = p
		if r.next++; r.next == r.end {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftChurnRun(steps, runs, 0)
	}
	for i := range steps {
		for steps[i].Arg != 0 {
			to := steps[i].Arg - 1
			steps[i].Arg = 0
			steps[i], steps[to] = steps[to], steps[i]
		}
	}
}

// siftChurnRun restores the heap order of runs below i.
func siftChurnRun(steps []Step, runs []churnRun, i int) {
	less := func(a, b churnRun) bool {
		x, y := steps[a.next].At, steps[b.next].At
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
