package fabric

import (
	"fmt"
	"sort"

	"scmp/internal/packet"
)

// GroupConn describes one many-to-many connection through the fabric:
// the input ports carrying the group's sources and the output port that
// roots the group's multicast tree in the network.
type GroupConn struct {
	Inputs []int
	Output int
}

// Fabric is an n x n sandwich switching network (PN + CCN + DN).
type Fabric struct {
	n int
}

// New returns an n x n fabric. n must be a power of two, n >= 2.
func New(n int) (*Fabric, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fabric: size %d is not a power of two >= 2", n)
	}
	return &Fabric{n: n}, nil
}

// Configuration is a routed fabric state for a set of simultaneous
// many-to-many connections.
type Configuration struct {
	n      int
	pn     *benes
	dn     *benes
	groups map[packet.GroupID]GroupConn
	// runStart[line] = first line of the CCN run the line belongs to;
	// -1 for idle lines. The CCN merges each run onto its first line.
	runStart []int
	// groupOfRun[firstLine] identifies the run's group.
	groupOfRun map[int]packet.GroupID
}

// Configure routes a set of many-to-many connections through the
// sandwich network: the PN permutes each group's inputs into a
// contiguous run, the CCN merges each run onto its leading line, and
// the DN carries each leading line to the group's output port.
func (f *Fabric) Configure(groups map[packet.GroupID]GroupConn) (*Configuration, error) {
	usedIn := make(map[int]packet.GroupID)
	usedOut := make(map[int]packet.GroupID)
	total := 0
	gids := make([]packet.GroupID, 0, len(groups))
	for gid, gc := range groups {
		gids = append(gids, gid)
		if len(gc.Inputs) == 0 {
			return nil, fmt.Errorf("fabric: group %d has no inputs", gid)
		}
		if gc.Output < 0 || gc.Output >= f.n {
			return nil, fmt.Errorf("fabric: group %d output %d out of range", gid, gc.Output)
		}
		if prev, dup := usedOut[gc.Output]; dup {
			return nil, fmt.Errorf("fabric: output %d claimed by groups %d and %d", gc.Output, prev, gid)
		}
		usedOut[gc.Output] = gid
		for _, in := range gc.Inputs {
			if in < 0 || in >= f.n {
				return nil, fmt.Errorf("fabric: group %d input %d out of range", gid, in)
			}
			if prev, dup := usedIn[in]; dup {
				return nil, fmt.Errorf("fabric: input %d claimed by groups %d and %d", in, prev, gid)
			}
			usedIn[in] = gid
			total++
		}
	}
	if total > f.n {
		return nil, fmt.Errorf("fabric: %d inputs exceed fabric size %d", total, f.n)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	// PN: pack each group's inputs into a contiguous run of middle lines.
	pnPerm := make([]int, f.n)
	for i := range pnPerm {
		pnPerm[i] = -1
	}
	runStart := make([]int, f.n)
	for i := range runStart {
		runStart[i] = -1
	}
	groupOfRun := make(map[int]packet.GroupID)
	next := 0
	for _, gid := range gids {
		gc := groups[gid]
		ins := append([]int(nil), gc.Inputs...)
		sort.Ints(ins)
		start := next
		groupOfRun[start] = gid
		for _, in := range ins {
			pnPerm[in] = next
			runStart[next] = start
			next++
		}
	}
	fillPartial(pnPerm)

	// DN: each run's leading line goes to the group's output port.
	dnPerm := make([]int, f.n)
	for i := range dnPerm {
		dnPerm[i] = -1
	}
	for start, gid := range groupOfRun {
		dnPerm[start] = groups[gid].Output
	}
	fillPartial(dnPerm)

	pn, err := routeBenes(pnPerm)
	if err != nil {
		return nil, err
	}
	dn, err := routeBenes(dnPerm)
	if err != nil {
		return nil, err
	}
	cfgGroups := make(map[packet.GroupID]GroupConn, len(groups))
	for gid, gc := range groups {
		cfgGroups[gid] = GroupConn{Inputs: append([]int(nil), gc.Inputs...), Output: gc.Output}
	}
	cfg := &Configuration{
		n: f.n, pn: pn, dn: dn,
		groups: cfgGroups, runStart: runStart, groupOfRun: groupOfRun,
	}
	verifyHook(cfg)
	return cfg, nil
}

// fillPartial completes a partial permutation (-1 = unassigned) by
// assigning leftover outputs to leftover inputs in order.
func fillPartial(perm []int) {
	used := make([]bool, len(perm))
	for _, o := range perm {
		if o != -1 {
			used[o] = true
		}
	}
	free := 0
	for i, o := range perm {
		if o != -1 {
			continue
		}
		for used[free] {
			free++
		}
		perm[i] = free
		used[free] = true
	}
}

// Route traces a configured input port through PN, CCN and DN. ok is
// false for ports not carrying any group's source.
func (c *Configuration) Route(in int) (out int, gid packet.GroupID, ok bool) {
	if in < 0 || in >= c.n {
		return 0, 0, false
	}
	mid := c.pn.route(in)
	start := c.runStart[mid]
	if start == -1 {
		return 0, 0, false
	}
	gid = c.groupOfRun[start]
	// The CCN's reversed merge tree carries every line of the run onto
	// the run's leading line.
	out = c.dn.route(start)
	return out, gid, true
}

// MergeDepth returns the depth of the CCN merge tree needed for the
// largest configured group (ceil(log2(max run length)) levels).
func (c *Configuration) MergeDepth() int {
	longest := 0
	counts := make(map[int]int)
	for _, s := range c.runStart {
		if s != -1 {
			counts[s]++
			if counts[s] > longest {
				longest = counts[s]
			}
		}
	}
	depth := 0
	for size := 1; size < longest; size *= 2 {
		depth++
	}
	return depth
}

// Stages returns the total switching stages a cell traverses
// (PN depth + CCN merge depth + DN depth).
func (c *Configuration) Stages() int {
	return c.pn.depth() + c.MergeDepth() + c.dn.depth()
}
