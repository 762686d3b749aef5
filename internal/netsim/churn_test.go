package netsim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"scmp/internal/des"
	"scmp/internal/packet"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// churnRec records every membership event the churn driver fires, with
// its simulated time, through the Protocol interface.
type churnRec struct {
	net *Network
	log []churnEv
}

type churnEv struct {
	join bool
	node topology.NodeID
	at   des.Time
}

func (p *churnRec) Attach(n *Network)                              { p.net = n }
func (p *churnRec) HandlePacket(node topology.NodeID, pkt *Packet) {}
func (p *churnRec) HostJoin(node topology.NodeID, g packet.GroupID) {
	p.log = append(p.log, churnEv{true, node, p.net.Now()})
}
func (p *churnRec) HostLeave(node topology.NodeID, g packet.GroupID) {
	p.log = append(p.log, churnEv{false, node, p.net.Now()})
}
func (p *churnRec) SendData(src topology.NodeID, g packet.GroupID, size int, seq uint64) {}

func churnMembers(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func runChurn(plan ChurnPlan) (*Churn, []churnEv) {
	p := &churnRec{}
	n := New(lineGraph(max(len(plan.Members), 2)), p)
	c := n.InstallChurn(plan)
	n.Run()
	return c, p.log
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestChurnDeterministic: equal (plan, seed) pairs must produce the
// byte-identical event schedule; a different seed must not.
func TestChurnDeterministic(t *testing.T) {
	plan := ChurnPlan{Group: 1, Members: churnMembers(10), Rate: 200, Duration: 5, Seed: 42}
	c1, log1 := runChurn(plan)
	c2, log2 := runChurn(plan)
	if len(log1) == 0 {
		t.Fatal("no churn events generated")
	}
	if len(log1) != len(log2) {
		t.Fatalf("event counts differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
	if c1.Events() != c2.Events() || c1.Joins() != c2.Joins() || c1.Rejoins() != c2.Rejoins() || c1.Leaves() != c2.Leaves() {
		t.Fatal("event mix differs between identical plans")
	}
	plan.Seed = 43
	_, log3 := runChurn(plan)
	same := len(log3) == len(log1)
	if same {
		for i := range log1 {
			if log1[i] != log3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestChurnRateAndMix: the generated event total tracks Rate*Duration,
// the counts add up, and every event lands inside the churn window.
func TestChurnRateAndMix(t *testing.T) {
	for _, dist := range []ChurnDist{ChurnPoisson, ChurnPareto} {
		plan := ChurnPlan{Group: 1, Members: churnMembers(20), Rate: 400, Dist: dist,
			Start: 1, Duration: 5, Seed: 7}
		c, log := runChurn(plan)
		want := plan.Rate * plan.Duration
		if got := float64(c.Events()); got < want/2 || got > want*2 {
			t.Errorf("%v: %g events, want within 2x of %g", dist, got, want)
		}
		if c.Events() != c.Joins()+c.Rejoins()+c.Leaves() {
			t.Errorf("%v: mix %d+%d+%d != %d", dist, c.Joins(), c.Rejoins(), c.Leaves(), c.Events())
		}
		if c.Events() != len(log) {
			t.Errorf("%v: %d events counted, %d fired", dist, c.Events(), len(log))
		}
		if c.Joins() > len(plan.Members) {
			t.Errorf("%v: %d first-time joins from %d members", dist, c.Joins(), len(plan.Members))
		}
		for _, ev := range log {
			if float64(ev.at) < plan.Start || float64(ev.at) >= plan.Start+plan.Duration {
				t.Fatalf("%v: event at %g outside churn window", dist, float64(ev.at))
			}
		}
	}
}

// TestChurnMemberAlternation: per member the schedule must strictly
// alternate join/leave starting with a join (the driver's renewal
// process is an on/off flip, never two joins in a row).
func TestChurnMemberAlternation(t *testing.T) {
	plan := ChurnPlan{Group: 1, Members: churnMembers(8), Rate: 300, Duration: 4, Seed: 3}
	_, log := runChurn(plan)
	on := map[topology.NodeID]bool{}
	for _, ev := range log {
		if ev.join == on[ev.node] {
			t.Fatalf("member %d fired %v while already in that state", ev.node, ev.join)
		}
		on[ev.node] = ev.join
	}
}

// TestChurnPlanValidation: malformed plans must panic at install time.
func TestChurnPlanValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]ChurnPlan{
		"no members":     {Rate: 10, Duration: 1},
		"zero rate":      {Members: churnMembers(2), Duration: 1},
		"zero duration":  {Members: churnMembers(2), Rate: 10},
		"pareto alpha<1": {Members: churnMembers(2), Rate: 10, Duration: 1, Dist: ChurnPareto, Alpha: 0.5},
		// Each of these used to loop forever generating the schedule, or
		// (negative start) fail later as an event in the past.
		"NaN rate":              {Members: churnMembers(2), Rate: nan, Duration: 1},
		"infinite rate":         {Members: churnMembers(2), Rate: inf, Duration: 1},
		"NaN duration":          {Members: churnMembers(2), Rate: 10, Duration: nan},
		"infinite duration":     {Members: churnMembers(2), Rate: 10, Duration: inf},
		"NaN start":             {Members: churnMembers(2), Rate: 10, Duration: 1, Start: nan},
		"infinite start":        {Members: churnMembers(2), Rate: 10, Duration: 1, Start: inf},
		"negative start":        {Members: churnMembers(2), Rate: 10, Duration: 1, Start: -1},
		"NaN pareto alpha":      {Members: churnMembers(2), Rate: 10, Duration: 1, Dist: ChurnPareto, Alpha: nan},
		"infinite pareto alpha": {Members: churnMembers(2), Rate: 10, Duration: 1, Dist: ChurnPareto, Alpha: inf},
		// These used to install and fail only when the member's event fired.
		"member out of range": {Members: []topology.NodeID{0, 3}, Rate: 10, Duration: 1},
		"negative member":     {Members: []topology.NodeID{-1, 1}, Rate: 10, Duration: 1},
		// Two renewal processes used to flap a repeated member.
		"duplicate member": {Members: []topology.NodeID{2, 0, 2}, Rate: 10, Duration: 1},
	}
	for name, plan := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			n := New(lineGraph(3), &churnRec{})
			n.InstallChurn(plan)
		}()
	}
	err := ChurnPlan{Members: []topology.NodeID{2, 0, 2}, Rate: 10, Duration: 1}.Validate(3)
	if err == nil || err.Error() != "churn member 2 listed twice" {
		t.Errorf("duplicate member: Validate = %v", err)
	}
}

// groupRec is churnRec that also logs each event's group.
type groupRec struct {
	churnRec
	groups []packet.GroupID
}

func (p *groupRec) HostJoin(node topology.NodeID, g packet.GroupID) {
	p.churnRec.HostJoin(node, g)
	p.groups = append(p.groups, g)
}
func (p *groupRec) HostLeave(node topology.NodeID, g packet.GroupID) {
	p.churnRec.HostLeave(node, g)
	p.groups = append(p.groups, g)
}

// TestChurnLaneReuse: overlapping installs hold separate script slots
// and still fire in global time order, with exact-time ties across
// installs in install order; an install after the scripts drain reuses
// a slot instead of opening another. Each install churns its own group,
// so the group names the install an event came from.
func TestChurnLaneReuse(t *testing.T) {
	p := &groupRec{}
	n := New(lineGraph(10), p)
	plan := func(g packet.GroupID, start float64, seed int64) ChurnPlan {
		return ChurnPlan{Group: g, Members: churnMembers(10), Rate: 200, Start: start, Duration: 2, Seed: seed}
	}
	var installed []*Churn
	// Groups 1 and 2 share a seed, so every event of 2 ties with one of 1.
	for _, pl := range []ChurnPlan{plan(1, 0, 5), plan(2, 0, 5), plan(3, 1, 6)} {
		installed = append(installed, n.InstallChurn(pl))
	}
	n.Run()
	installed = append(installed, n.InstallChurn(plan(4, 3, 7)))
	n.Run()
	if slots := len(n.scripts); slots != 3 {
		t.Fatalf("%d script slots after three overlapping installs and one after they drained, want 3", slots)
	}
	want := 0
	for _, c := range installed {
		want += c.Events()
	}
	if want == 0 || len(p.log) != want {
		t.Fatalf("fired %d events, the installs generated %d", len(p.log), want)
	}
	ties := 0
	for i := 1; i < len(p.log); i++ {
		prev, at, pg, g := p.log[i-1].at, p.log[i].at, p.groups[i-1], p.groups[i]
		if at < prev || at == prev && g < pg {
			t.Fatalf("event %d (group %d at %v) fired after group %d at %v", i, g, at, pg, prev)
		}
		if at == prev && g != pg {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no exact-time ties across installs: the tie order went unchecked")
	}
}

// TestChurnMergeKeepsMemberMajorTies: members that flip at a
// bit-identical time keep member-major (generation) order through the
// merge of their runs — the order slices.SortFunc gives the same events
// on the (time, generation index) key. The hand-built runs put 8 members,
// in descending id, on a grid of a few instants, so every instant ties
// across members; the random ones add empty and uneven runs.
func TestChurnMergeKeepsMemberMajorTies(t *testing.T) {
	check := func(name string, gen []Step, runs []churnRun) {
		t.Helper()
		idx := make([]int, len(gen))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return cmp.Or(cmp.Compare(gen[a].At, gen[b].At), cmp.Compare(a, b)) })
		want := make([]Step, len(gen))
		for i, k := range idx {
			want[i] = gen[k]
		}
		got := slices.Clone(gen)
		if mergeChurnRuns(got, slices.Clone(runs)); !slices.Equal(got, want) {
			t.Fatalf("%s: merged order differs from the sort:\n got %v\nwant %v", name, got, want)
		}
	}
	var gen []Step
	var runs []churnRun
	for m := int32(7); m >= 0; m-- { // member-major, members in descending id
		start := len(gen)
		for k := 0; k < 8; k++ {
			gen = append(gen, Step{At: des.Time((int(m)%3+k)/2) * 0.25, Node: m, Kind: Join + StepKind(k%2)})
		}
		runs = append(runs, churnRun{next: int32(start), end: int32(len(gen))})
	}
	check("hand-built", gen, runs)
	rnd := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		gen, runs = gen[:0], runs[:0]
		for m := int32(rnd.Intn(12)); m >= 0; m-- {
			start, at := len(gen), 0.0
			for k := rnd.Intn(10); k > 0; k-- {
				at += float64(rnd.Intn(3)) * 0.125
				gen = append(gen, Step{At: des.Time(at), Node: m, Kind: Join + StepKind(k%2)})
			}
			if len(gen) > start {
				runs = append(runs, churnRun{next: int32(start), end: int32(len(gen))})
			}
		}
		check(fmt.Sprintf("trial %d", trial), gen, runs)
	}
}

// TestChurnComposesWithFaults: churn and a fault plan run together on
// one network — membership pressure under control loss.
func TestChurnComposesWithFaults(t *testing.T) {
	p := &churnRec{}
	n := New(lineGraph(10), p)
	c := n.InstallChurn(ChurnPlan{Group: 1, Members: churnMembers(10), Rate: 200, Duration: 3, Seed: 5})
	n.InstallFaults(FaultPlan{ControlLoss: 0.3, LossUntil: 3, Seed: 9})
	n.Run()
	if c.Events() == 0 || len(p.log) != c.Events() {
		t.Fatalf("churn under faults fired %d/%d events", len(p.log), c.Events())
	}
}

// nopMembers is a protocol that ignores everything, so a measurement sees
// the network layer alone.
type nopMembers struct{ echoProto }

func (nopMembers) HostJoin(topology.NodeID, packet.GroupID)  {}
func (nopMembers) HostLeave(topology.NodeID, packet.GroupID) {}

// TestChurnReinstallReusesStorage: an install after the last script
// drained generates into that script's spent storage with one reseeded
// generator and merges it in place, so a steady stream of installs —
// the churn experiment's and the benchmark's chunked windows — costs two
// generators (5 KB each), the Script and the odd growth of a schedule
// longer than any before it: about 18 KB an install here, against 4000
// events and 32 members that a fresh schedule and a generator per
// member would put near 500 KB.
func TestChurnReinstallReusesStorage(t *testing.T) {
	n := New(lineGraph(40), &nopMembers{})
	start := 0.0
	install := func() {
		n.InstallChurn(ChurnPlan{Group: 1, Members: churnMembers(32), Rate: 2000, Start: start, Duration: 2, Seed: int64(start)})
		start += 2
		n.RunUntil(des.Time(start))
	}
	for i := 0; i < 5; i++ { // the scheduler's slot pool and the schedule reach their peak sizes
		install()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const installs = 20
	for i := 0; i < installs; i++ {
		install()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / installs
	t.Logf("%d bytes per install", per)
	if per > 32<<10 {
		t.Fatalf("an install after a drained script allocates %d bytes, budget %d", per, 32<<10)
	}
	if len(n.scripts) != 1 {
		t.Fatalf("%d script slots for back-to-back installs, want 1", len(n.scripts))
	}
}

// Same-instant steps share one scheduler event, which must fire them one by
// one, in script order, each through HostJoin or HostLeave, and leave
// ground truth matching them.
func TestDispatchChurnTickCoalescing(t *testing.T) {
	p := &churnRec{}
	n := New(lineGraph(8), p)
	for _, v := range []topology.NodeID{1, 2, 3, 4, 5} {
		n.HostJoin(v, 7)
	}
	p.log = nil
	var tick []Step
	for _, st := range []struct {
		node int32
		kind StepKind
	}{{1, Leave}, {2, Leave}, {6, Join}, {3, Leave}, {4, Leave}, {5, Leave}} {
		tick = append(tick, Step{At: 1, Node: st.node, Group: 7, Kind: st.kind})
	}
	n.InstallScript(tick)
	if n.Sched.Pending() != 1 {
		t.Fatalf("%d steps at one instant queued %d events", len(tick), n.Sched.Pending())
	}
	n.Run()
	wantLog := []churnEv{
		{false, 1, 1}, {false, 2, 1},
		{true, 6, 1},
		{false, 3, 1}, {false, 4, 1}, {false, 5, 1},
	}
	if !slices.Equal(p.log, wantLog) || n.EventsFired() != 1 {
		t.Fatalf("dispatch order %v in %d events, want %v in 1", p.log, n.EventsFired(), wantLog)
	}
	if got := n.Members(7); !slices.Equal(got, []topology.NodeID{6}) {
		t.Fatalf("ground truth after tick: %v, want [6]", got)
	}
}
