package fabric

import (
	"fmt"
	"sort"

	"scmp/internal/packet"
)

// Groups returns a copy of the configured group connections, for
// external validators (scmp/internal/invariant) and diagnostics.
func (c *Configuration) Groups() map[packet.GroupID]GroupConn {
	out := make(map[packet.GroupID]GroupConn, len(c.groups))
	for gid, gc := range c.groups {
		out[gid] = GroupConn{Inputs: append([]int(nil), gc.Inputs...), Output: gc.Output}
	}
	return out
}

// Verify checks the configuration's group-isolation property from the
// inside: every line of a CCN run belongs to exactly the group the run
// is labelled with, every group's inputs land on its own run, runs are
// contiguous, and each run's leading line reaches the group's output
// through the DN. This is the conference-switch guarantee the paper's
// m-router throughput argument rests on — a violation would merge two
// groups' cells. It returns nil or a descriptive error; the invariants
// build tag makes Configure call it on every routed configuration.
func (c *Configuration) Verify() error {
	gids := make([]packet.GroupID, 0, len(c.groups))
	for gid := range c.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	// Each group's inputs must occupy one run, labelled with the group.
	usedOut := make(map[int]packet.GroupID)
	runOf := make(map[packet.GroupID]int)
	for _, gid := range gids {
		gc := c.groups[gid]
		if prev, dup := usedOut[gc.Output]; dup {
			return fmt.Errorf("fabric: output %d serves groups %d and %d", gc.Output, prev, gid)
		}
		usedOut[gc.Output] = gid
		for _, in := range gc.Inputs {
			mid := c.pn.route(in)
			start := c.runStart[mid]
			if start == -1 {
				return fmt.Errorf("fabric: group %d input %d lands on idle middle line %d", gid, in, mid)
			}
			if got := c.groupOfRun[start]; got != gid {
				return fmt.Errorf("fabric: group %d input %d lands in group %d's run", gid, in, got)
			}
			if prev, seen := runOf[gid]; seen && prev != start {
				return fmt.Errorf("fabric: group %d split across runs %d and %d", gid, prev, start)
			}
			runOf[gid] = start
		}
		if start, seen := runOf[gid]; seen {
			if out := c.dn.route(start); out != gc.Output {
				return fmt.Errorf("fabric: group %d's run %d exits at output %d, want %d", gid, start, out, gc.Output)
			}
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

// Tamper relabels the CCN run that input in feeds as belonging to gid —
// a deliberate group-isolation violation. It exists solely so tests
// outside this package can hand the invariant checker a corrupted
// configuration; production code must never call it.
//
//scmplint:ignore testonly — the corruption fixture invariant.CheckFabric's tests need
func (c *Configuration) Tamper(in int, gid packet.GroupID) {
	mid := c.pn.route(in)
	if start := c.runStart[mid]; start != -1 {
		c.groupOfRun[start] = gid
	}
}
