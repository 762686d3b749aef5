// Package scenario provides a small text DSL for driving simulations —
// the tool a downstream user reaches for to reproduce a situation
// without writing Go. A script picks a topology and a protocol, then
// schedules joins, leaves, data and (for SCMP) a failover, runs the
// clock, and checks delivery:
//
//	# lecture with churn
//	topology random n=40 degree=3 seed=11
//	scale-delays 0.001
//	protocol scmp mrouter=0 kappa=1.5
//	at 0.0 join 5
//	at 0.2 join 9 group=1
//	at 1.0 send 3 size=1000
//	at 2.0 leave 5
//	run 10
//	expect delivered
//	print metrics
//	print tree group=1
//
// Lines are independent commands; '#' starts a comment. Every event
// command takes an optional group=N (default 1). `scale-delays F`
// multiplies every link delay (e.g. 0.001 reads the generators' units
// as milliseconds) and `bandwidth B` gives links a finite capacity of
// B bytes/s (queueing + transmission + propagation, the paper's
// three-component link delay); both must precede `protocol`.
//
// Fault injection: `faults loss-control=P loss-data=P until=T seed=S`
// (after `protocol`) installs a deterministic fault plan, and the
// events `at T link-down U V`, `at T link-up U V`, `at T node-down N`
// and `at T node-up N` schedule topology faults (installing an empty
// plan on first use if `faults` was not given). The scmp protocol
// accepts ack=T (reliable JOIN/LEAVE ACK timeout), retries=N and
// refresh=T (soft-state tree refresh interval); `run` quiesces those
// periodic timers after its deadline so the clock drains.
//
// Generated membership churn: `churn <group> <rate> <dist> <duration>
// members=a,b,c` (after `protocol`) installs a seeded flap schedule —
// <dist> is poisson or pareto (heavy-tailed; alpha=A, default 1.5) —
// with optional start=T and seed=S; `print churn` reports the
// generated event mix. The scmp overload defences pair with it:
// service=T procs=N model the m-router's compute, admit=N sheds JOINs
// beyond a pending-queue limit with NACK/retry-after, retry-budget=N
// parks a request after N failed attempts (re-attempted on a deferred
// timer), and suppress=true skips refresh ticks for unchanged trees.
//
// Every number is checked where it is read: times are finite and
// non-negative, factors, bandwidths and rates finite and positive, loss
// rates in [0, 1], router ids in range. A malformed script is a
// "line N: ..." error, never a panic inside the simulator.
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"scmp/internal/core"
	"scmp/internal/des"
	"scmp/internal/netsim"
	"scmp/internal/packet"
	"scmp/internal/protocols/cbt"
	"scmp/internal/protocols/dvmrp"
	"scmp/internal/protocols/mospf"
	"scmp/internal/rng"
	"scmp/internal/topology"
)

// command is one parsed script line.
type command struct {
	line int
	verb string // topology, scale-delays, protocol, at, run, expect, print
	args []string
	kv   map[string]string
	at   float64 // for "at" commands
	sub  string  // the event verb after "at": join, leave, send, failover
}

// Script is a parsed scenario.
type Script struct {
	cmds []command
}

// Parse reads a scenario script.
func Parse(r io.Reader) (*Script, error) {
	sc := bufio.NewScanner(r)
	var cmds []command
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd := command{line: lineNo, verb: fields[0], kv: map[string]string{}}
		rest := fields[1:]
		if cmd.verb == "at" {
			if len(rest) < 2 {
				return nil, fmt.Errorf("line %d: at needs a time and an event", lineNo)
			}
			t, err := cmd.arg("time", rest[0], timeVal)
			if err != nil {
				return nil, err
			}
			cmd.at = t
			cmd.sub = rest[1]
			rest = rest[2:]
		}
		for _, f := range rest {
			if k, v, ok := strings.Cut(f, "="); ok {
				cmd.kv[k] = v
			} else {
				cmd.args = append(cmd.args, f)
			}
		}
		switch cmd.verb {
		case "topology", "scale-delays", "bandwidth", "protocol", "faults", "churn", "at", "run", "expect", "print":
		default:
			return nil, fmt.Errorf("line %d: unknown command %q", lineNo, cmd.verb)
		}
		cmds = append(cmds, cmd)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Script{cmds: cmds}, nil
}

// domain is the set of values a number in a script may take.
type domain struct {
	want string
	ok   func(float64) bool
}

var (
	timeVal  = domain{"a finite time >= 0", func(f float64) bool { return f >= 0 && !math.IsInf(f, 1) }}
	positive = domain{"finite and > 0", func(f float64) bool { return f > 0 && !math.IsInf(f, 1) }}
	lossRate = domain{"in [0, 1]", func(f float64) bool { return f >= 0 && f <= 1 }}
	kappaVal = domain{"at least 1, or inf", func(f float64) bool { return f >= 1 }}
	alphaVal = domain{"0 (the default) or finite and > 1", func(f float64) bool { return f == 0 || f > 1 && !math.IsInf(f, 1) }}
)

// parseIn parses s (strconv syntax, so "inf" and "NaN" parse) and
// reports whether the value lies in d.
func parseIn(s string, d domain) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && d.ok(f)
}

// arg parses positional argument s, named what in the error, in d.
func (c command) arg(what, s string, d domain) (float64, error) {
	f, ok := parseIn(s, d)
	if !ok {
		return 0, fmt.Errorf("line %d: bad %s %q (want %s)", c.line, what, s, d.want)
	}
	return f, nil
}

func (c command) float(key string, def float64, d domain) (float64, error) {
	v, ok := c.kv[key]
	if !ok {
		return def, nil
	}
	f, ok := parseIn(v, d)
	if !ok {
		return 0, fmt.Errorf("line %d: bad %s=%q (want %s)", c.line, key, v, d.want)
	}
	return f, nil
}

func (c command) int(key string, def int) (int, error) {
	v, ok := c.kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("line %d: bad %s=%q", c.line, key, v)
	}
	return n, nil
}

// router reads key as a router id of the topology, def when absent.
func (c command) router(key string, def int, g *topology.Graph) (topology.NodeID, error) {
	n, err := c.int(key, def)
	if err == nil && (n < 0 || n >= g.N()) {
		err = fmt.Errorf("line %d: %s=%d out of range (the topology has %d routers)", c.line, key, n, g.N())
	}
	return topology.NodeID(n), err
}

func (c command) group() (packet.GroupID, error) {
	n, err := c.int("group", 1)
	return packet.GroupID(n), err
}

// state is the execution context.
type state struct {
	g         *topology.Graph
	scale     float64
	bandwidth float64
	net       *netsim.Network
	scmp      *core.SCMP     // non-nil when the protocol is SCMP
	faults    *netsim.Faults // non-nil once a fault plan is installed
	churns    []*netsim.Churn
	sent      []uint64
	w         io.Writer
}

// Run executes the script, writing "print" output to w.
func (s *Script) Run(w io.Writer) error {
	st := &state{scale: 1, w: w}
	for _, c := range s.cmds {
		if err := st.exec(c); err != nil {
			return err
		}
	}
	return nil
}

func (st *state) exec(c command) error {
	switch c.verb {
	case "topology":
		return st.execTopology(c)
	case "scale-delays":
		if st.net != nil {
			return fmt.Errorf("line %d: scale-delays must precede protocol", c.line)
		}
		if len(c.args) != 1 {
			return fmt.Errorf("line %d: scale-delays needs a factor", c.line)
		}
		f, err := c.arg("factor", c.args[0], positive)
		st.scale = f
		return err
	case "bandwidth":
		if st.net != nil {
			return fmt.Errorf("line %d: bandwidth must precede protocol", c.line)
		}
		if len(c.args) != 1 {
			return fmt.Errorf("line %d: bandwidth needs bytes/s", c.line)
		}
		f, err := c.arg("bandwidth", c.args[0], positive)
		st.bandwidth = f
		return err
	case "protocol":
		return st.execProtocol(c)
	case "faults":
		return st.execFaults(c)
	case "churn":
		return st.execChurn(c)
	case "at":
		return st.execAt(c)
	case "run":
		if st.net == nil {
			return fmt.Errorf("line %d: run before protocol", c.line)
		}
		if len(c.args) == 1 {
			t, err := c.arg("run deadline", c.args[0], timeVal)
			if err != nil {
				return err
			}
			st.net.RunUntil(des.Time(t))
		}
		// Periodic soft-state timers re-arm forever; cancel them so the
		// drain below terminates (a no-op unless refresh/ack are set).
		if st.scmp != nil {
			st.scmp.Quiesce()
		}
		st.net.Run()
		return nil
	case "expect":
		return st.execExpect(c)
	case "print":
		return st.execPrint(c)
	}
	return fmt.Errorf("line %d: unhandled %q", c.line, c.verb)
}

func (st *state) execTopology(c command) error {
	if st.g != nil {
		return fmt.Errorf("line %d: topology already set", c.line)
	}
	if len(c.args) != 1 {
		return fmt.Errorf("line %d: topology needs a kind", c.line)
	}
	seed, err := c.int("seed", 1)
	if err != nil {
		return err
	}
	rng := rng.New(int64(seed))
	switch c.args[0] {
	case "arpanet":
		st.g = topology.Arpanet()
	case "waxman":
		n, err := c.int("n", 50)
		if err != nil {
			return err
		}
		wg, err := topology.Waxman(topology.DefaultWaxman(n), rng)
		if err != nil {
			return fmt.Errorf("line %d: %v", c.line, err)
		}
		st.g = wg.Graph
	case "random":
		n, err := c.int("n", 50)
		if err != nil {
			return err
		}
		deg, err := c.float("degree", 3, positive)
		if err != nil {
			return err
		}
		g, err := topology.Random(topology.DefaultRandom(n, deg), rng)
		if err != nil {
			return fmt.Errorf("line %d: %v", c.line, err)
		}
		st.g = g
	case "transitstub":
		g, _, err := topology.TransitStub(topology.DefaultTransitStub(), rng)
		if err != nil {
			return fmt.Errorf("line %d: %v", c.line, err)
		}
		st.g = g
	default:
		return fmt.Errorf("line %d: unknown topology %q", c.line, c.args[0])
	}
	return nil
}

func (st *state) execProtocol(c command) error {
	if st.g == nil {
		return fmt.Errorf("line %d: protocol before topology", c.line)
	}
	if st.net != nil {
		return fmt.Errorf("line %d: protocol already set", c.line)
	}
	if len(c.args) != 1 {
		return fmt.Errorf("line %d: protocol needs a name", c.line)
	}
	g := st.g
	if st.scale != 1 {
		g = g.ScaleDelays(st.scale)
	}
	var proto netsim.Protocol
	switch c.args[0] {
	case "scmp":
		mrouter, err := c.router("mrouter", 0, g)
		if err != nil {
			return err
		}
		kappa, err := c.float("kappa", 1.5, kappaVal)
		if err != nil {
			return err
		}
		// A non-positive standby disables the feature (core.Config).
		standby, err := c.int("standby", -1)
		if err != nil {
			return err
		}
		if standby > 0 && (standby >= g.N() || standby == int(mrouter)) {
			return fmt.Errorf("line %d: standby=%d is not a router other than mrouter=%d", c.line, standby, mrouter)
		}
		budget, err := c.float("budget", 0, timeVal)
		if err != nil {
			return err
		}
		ack, err := c.float("ack", 0, timeVal)
		if err != nil {
			return err
		}
		retries, err := c.int("retries", 0)
		if err != nil {
			return err
		}
		refresh, err := c.float("refresh", 0, timeVal)
		if err != nil {
			return err
		}
		service, err := c.float("service", 0, timeVal)
		if err != nil {
			return err
		}
		procs, err := c.int("procs", 0)
		if err != nil {
			return err
		}
		admit, err := c.int("admit", 0)
		if err != nil {
			return err
		}
		retryBudget, err := c.int("retry-budget", 0)
		if err != nil {
			return err
		}
		suppress := false
		if v, ok := c.kv["suppress"]; ok {
			suppress, err = strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("line %d: bad suppress=%q", c.line, v)
			}
		}
		s := core.New(core.Config{
			MRouter:         mrouter,
			Kappa:           kappa,
			Standby:         topology.NodeID(standby),
			DelayBudget:     budget,
			AckTimeout:      ack,
			RetryCap:        retries,
			RefreshInterval: refresh,
			ServiceTime:     service,
			Processors:      procs,
			AdmitLimit:      admit,
			RetryBudget:     retryBudget,
			RefreshSuppress: suppress,
		})
		st.scmp = s
		proto = s
	case "dvmrp":
		lifetime, err := c.float("prune", float64(dvmrp.DefaultPruneLifetime), timeVal)
		if err != nil {
			return err
		}
		proto = dvmrp.New(des.Time(lifetime))
	case "mospf":
		proto = mospf.New()
	case "cbt":
		coreNode, err := c.router("core", 0, g)
		if err != nil {
			return err
		}
		proto = cbt.New(coreNode)
	default:
		return fmt.Errorf("line %d: unknown protocol %q", c.line, c.args[0])
	}
	st.net = netsim.New(g, proto)
	st.net.Bandwidth = st.bandwidth
	return nil
}

// execFaults installs the deterministic fault plan. It must follow
// `protocol` and precede any scheduled fault event (those auto-install
// an empty plan, and a network accepts only one).
func (st *state) execFaults(c command) error {
	if st.net == nil {
		return fmt.Errorf("line %d: faults before protocol", c.line)
	}
	if st.faults != nil {
		return fmt.Errorf("line %d: faults already installed", c.line)
	}
	lossCtl, err := c.float("loss-control", 0, lossRate)
	if err != nil {
		return err
	}
	lossData, err := c.float("loss-data", 0, lossRate)
	if err != nil {
		return err
	}
	until, err := c.float("until", 0, timeVal)
	if err != nil {
		return err
	}
	seed, err := c.int("seed", 1)
	if err != nil {
		return err
	}
	st.faults = st.net.InstallFaults(netsim.FaultPlan{
		ControlLoss: lossCtl,
		DataLoss:    lossData,
		LossUntil:   des.Time(until),
		Seed:        int64(seed),
	})
	return nil
}

// execChurn installs a generated membership flap schedule:
// `churn <group> <rate> <dist> <duration> members=a,b,c` with optional
// start=T, seed=S and (for pareto) alpha=A.
func (st *state) execChurn(c command) error {
	if st.net == nil {
		return fmt.Errorf("line %d: churn before protocol", c.line)
	}
	if len(c.args) != 4 {
		return fmt.Errorf("line %d: churn needs <group> <rate> <dist> <duration>", c.line)
	}
	grp, err := strconv.Atoi(c.args[0])
	if err != nil || grp < 1 {
		return fmt.Errorf("line %d: bad group %q", c.line, c.args[0])
	}
	rate, err := c.arg("rate", c.args[1], positive)
	if err != nil {
		return err
	}
	var dist netsim.ChurnDist
	switch c.args[2] {
	case "poisson":
		dist = netsim.ChurnPoisson
	case "pareto":
		dist = netsim.ChurnPareto
	default:
		return fmt.Errorf("line %d: unknown churn distribution %q (want poisson or pareto)", c.line, c.args[2])
	}
	duration, err := c.arg("duration", c.args[3], positive)
	if err != nil {
		return err
	}
	mv, ok := c.kv["members"]
	if !ok {
		return fmt.Errorf("line %d: churn needs members=a,b,...", c.line)
	}
	var members []topology.NodeID
	for _, f := range strings.Split(mv, ",") {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 || n >= st.net.G.N() {
			return fmt.Errorf("line %d: bad churn member %q", c.line, f)
		}
		members = append(members, topology.NodeID(n))
	}
	start, err := c.float("start", 0, timeVal)
	if err != nil {
		return err
	}
	alpha, err := c.float("alpha", 0, alphaVal)
	if err != nil {
		return err
	}
	seed, err := c.int("seed", 1)
	if err != nil {
		return err
	}
	st.churns = append(st.churns, st.net.InstallChurn(netsim.ChurnPlan{
		Group:    packet.GroupID(grp),
		Members:  members,
		Rate:     rate,
		Dist:     dist,
		Alpha:    alpha,
		Start:    start,
		Duration: duration,
		Seed:     int64(seed),
	}))
	return nil
}

// ensureFaults lazily installs an empty plan so scripts can schedule
// topology faults without a `faults` line.
func (st *state) ensureFaults() *netsim.Faults {
	if st.faults == nil {
		st.faults = st.net.InstallFaults(netsim.FaultPlan{})
	}
	return st.faults
}

func (st *state) execAt(c command) error {
	if st.net == nil {
		return fmt.Errorf("line %d: events before protocol", c.line)
	}
	grp, err := c.group()
	if err != nil {
		return err
	}
	node := func() (topology.NodeID, error) {
		if len(c.args) != 1 {
			return 0, fmt.Errorf("line %d: %s needs a node", c.line, c.sub)
		}
		n, err := strconv.Atoi(c.args[0])
		if err != nil || n < 0 || n >= st.net.G.N() {
			return 0, fmt.Errorf("line %d: bad node %q", c.line, c.args[0])
		}
		return topology.NodeID(n), nil
	}
	switch c.sub {
	case "join":
		v, err := node()
		if err != nil {
			return err
		}
		st.net.Sched.At(des.Time(c.at), func() { st.net.HostJoin(v, grp) })
	case "leave":
		v, err := node()
		if err != nil {
			return err
		}
		st.net.Sched.At(des.Time(c.at), func() { st.net.HostLeave(v, grp) })
	case "send":
		v, err := node()
		if err != nil {
			return err
		}
		size, err := c.int("size", packet.DefaultDataSize)
		if err != nil {
			return err
		}
		if size < 0 {
			return fmt.Errorf("line %d: bad size=%d (want >= 0)", c.line, size)
		}
		st.net.Sched.At(des.Time(c.at), func() {
			st.sent = append(st.sent, st.net.SendData(v, grp, size))
		})
	case "failover":
		if st.scmp == nil {
			return fmt.Errorf("line %d: failover requires the scmp protocol", c.line)
		}
		st.net.Sched.At(des.Time(c.at), func() { st.scmp.Failover() })
	case "link-down", "link-up":
		if len(c.args) != 2 {
			return fmt.Errorf("line %d: %s needs two endpoints", c.line, c.sub)
		}
		u, errU := strconv.Atoi(c.args[0])
		v, errV := strconv.Atoi(c.args[1])
		if errU != nil || errV != nil ||
			!st.net.G.HasEdge(topology.NodeID(u), topology.NodeID(v)) {
			return fmt.Errorf("line %d: %s: no link %s-%s", c.line, c.sub, c.args[0], c.args[1])
		}
		if c.sub == "link-down" {
			st.ensureFaults().ScheduleLinkDown(des.Time(c.at), topology.NodeID(u), topology.NodeID(v))
		} else {
			st.ensureFaults().ScheduleLinkUp(des.Time(c.at), topology.NodeID(u), topology.NodeID(v))
		}
	case "node-down", "node-up":
		v, err := node()
		if err != nil {
			return err
		}
		if c.sub == "node-down" {
			st.ensureFaults().ScheduleNodeDown(des.Time(c.at), v)
		} else {
			st.ensureFaults().ScheduleNodeUp(des.Time(c.at), v)
		}
	default:
		return fmt.Errorf("line %d: unknown event %q", c.line, c.sub)
	}
	return nil
}

func (st *state) execExpect(c command) error {
	if st.net == nil {
		return fmt.Errorf("line %d: expect before protocol", c.line)
	}
	if len(c.args) != 1 || c.args[0] != "delivered" {
		return fmt.Errorf("line %d: only 'expect delivered' is supported", c.line)
	}
	for _, seq := range st.sent {
		missing, anomalous := st.net.CheckDelivery(seq)
		if len(missing) > 0 || len(anomalous) > 0 {
			return fmt.Errorf("line %d: packet %d: missing=%v anomalous=%v",
				c.line, seq, missing, anomalous)
		}
	}
	return nil
}

func (st *state) execPrint(c command) error {
	if st.net == nil {
		return fmt.Errorf("line %d: print before protocol", c.line)
	}
	if len(c.args) != 1 {
		return fmt.Errorf("line %d: print needs a subject", c.line)
	}
	switch c.args[0] {
	case "metrics":
		m := st.net.Metrics
		fmt.Fprintf(st.w, "t=%.3f data_overhead=%.1f proto_overhead=%.1f delivered=%d dropped=%d ctrl_drops=%d recoveries=%d max_e2e=%.4f\n",
			float64(st.net.Now()), m.DataOverhead(), m.ProtocolOverhead(),
			m.Delivered(), m.Dropped(), m.DroppedControl(), m.Recoveries(), m.MaxEndToEndDelay())
	case "tree":
		if st.scmp == nil {
			return fmt.Errorf("line %d: print tree requires the scmp protocol", c.line)
		}
		grp, err := c.group()
		if err != nil {
			return err
		}
		tr := st.scmp.GroupTree(grp)
		if tr == nil {
			fmt.Fprintf(st.w, "group %d: no tree\n", grp)
			return nil
		}
		fmt.Fprintf(st.w, "group %d: root=%d cost=%.1f delay=%.4f members=%v\n",
			grp, tr.Root(), tr.Cost(), tr.TreeDelay(), tr.Members())
		nodes := tr.Nodes()
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, v := range nodes {
			if p, ok := tr.Parent(v); ok {
				fmt.Fprintf(st.w, "  %d -> %d\n", v, p)
			}
		}
	case "churn":
		if len(st.churns) == 0 {
			fmt.Fprintf(st.w, "no churn installed\n")
			return nil
		}
		for _, ch := range st.churns {
			p := ch.Plan()
			fmt.Fprintf(st.w, "churn group %d: dist=%s rate=%.0f events=%d joins=%d rejoins=%d leaves=%d\n",
				p.Group, p.Dist, p.Rate, ch.Events(), ch.Joins(), ch.Rejoins(), ch.Leaves())
		}
	default:
		return fmt.Errorf("line %d: unknown print subject %q", c.line, c.args[0])
	}
	return nil
}
