package fabric

import (
	"fmt"
	"sort"

	"scmp/internal/packet"
)

// Verify checks the configuration's group-isolation property: every
// input a group claims routes, through PN, CCN and DN (Route), to that
// group's output under that group's label, inside one contiguous CCN
// run; no output serves two groups; inputs no group claims route
// nowhere; and every run is labelled with a configured group and
// carries exactly that group's lines. This is the conference-switch
// guarantee the paper's m-router throughput argument rests on — a
// violation would merge two groups' cells. It returns nil or a
// descriptive error; the invariants build tag makes Configure call it
// on every routed configuration.
func (c *Configuration) Verify() error {
	gids := make([]packet.GroupID, 0, len(c.groups))
	for gid := range c.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	// Each group's inputs must reach its output under its label, all
	// through one run.
	usedOut := make(map[int]packet.GroupID)
	runOf := make(map[packet.GroupID]int)
	claimed := make([]bool, c.n)
	for _, gid := range gids {
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

	// Run labels must refer to configured groups, runs must be
	// contiguous, and their line counts must match the group sizes.
	lines := make(map[packet.GroupID]int)
	for mid, start := range c.runStart {
		if start == -1 {
			continue
		}
		gid, labelled := c.groupOfRun[start]
		if !labelled {
			return fmt.Errorf("fabric: middle line %d belongs to unlabelled run %d", mid, start)
		}
		if _, known := c.groups[gid]; !known {
			return fmt.Errorf("fabric: run %d labelled with unconfigured group %d", start, gid)
		}
		if mid > 0 && c.runStart[mid-1] != start && start != mid {
			return fmt.Errorf("fabric: run %d is not contiguous at middle line %d", start, mid)
		}
		lines[gid]++
	}
	for _, gid := range gids {
		if got, want := lines[gid], len(c.groups[gid].Inputs); got != want {
			return fmt.Errorf("fabric: group %d run carries %d lines for %d inputs", gid, got, want)
		}
	}
	return nil
}
