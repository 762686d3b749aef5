package fabric

import (
	"fmt"

	"scmp/internal/packet"
	"scmp/internal/topology"
)

// Verify checks the configuration's group-isolation property: every
// input a group claims routes, through PN, CCN and DN (Route), to that
// group's output under that group's label, inside one CCN run; no
// output serves two groups; inputs no group claims route nowhere; and
// every run is contiguous, as the CCN's merge tree needs. This is the
// conference-switch guarantee the paper's m-router throughput argument
// rests on — a violation would merge two groups' cells. It returns nil
// or a descriptive error; the invariants build tag makes Configure call
// it on every routed configuration. Route cannot see contiguity (it
// reads a line's run, not the merge tree), so that is the one check on
// the runs themselves: a run's label and line count follow from the
// per-input checks, since the PN reaches every middle line from one
// input (DESIGN.md §11 has the trial).
func (c *Configuration) Verify() error {
	usedOut := make(map[int]packet.GroupID)
	runOf := make(map[packet.GroupID]int)
	claimed := make([]bool, c.n)
	for _, gid := range topology.SortedKeys(c.groups) {
		gc := c.groups[gid]
		if prev, dup := usedOut[gc.Output]; dup {
			return fmt.Errorf("fabric: output %d serves groups %d and %d", gc.Output, prev, gid)
		}
		usedOut[gc.Output] = gid
		for _, in := range gc.Inputs {
			out, got, ok := c.Route(in)
			if !ok {
				return fmt.Errorf("fabric: group %d input %d routes nowhere", gid, in)
			}
			claimed[in] = true
			if got != gid {
				return fmt.Errorf("fabric: cross-group connection — group %d input %d carries group %d's label", gid, in, got)
			}
			if out != gc.Output {
				return fmt.Errorf("fabric: cross-group connection — group %d input %d lands on output %d, want %d", gid, in, out, gc.Output)
			}
			start := c.runStart[c.pn.route(in)]
			if prev, seen := runOf[gid]; seen && prev != start {
				return fmt.Errorf("fabric: group %d split across runs %d and %d", gid, prev, start)
			}
			runOf[gid] = start
		}
	}
	for in, busy := range claimed {
		if _, gid, ok := c.Route(in); !busy && ok {
			return fmt.Errorf("fabric: idle input %d routes as group %d", in, gid)
		}
	}
	for mid, start := range c.runStart {
		if start != -1 && mid > 0 && c.runStart[mid-1] != start && start != mid {
			return fmt.Errorf("fabric: run %d is not contiguous at middle line %d", start, mid)
		}
	}
	return nil
}
