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
// Lines are independent commands; '#' starts a comment. join, leave,
// send and `print tree` take an optional group=N (default 1). The at
// lines before a run are one script (netsim.InstallScript), which the
// run installs; an at line whose time is before the clock, which a
// run has already passed, is an error.
// `scale-delays F` (after `topology`) multiplies every link delay (e.g.
// 0.001 reads the generators' units as milliseconds) and `bandwidth B`
// gives links a finite capacity of B bytes/s (queueing + transmission +
// propagation, the paper's three-component link delay); both must
// precede `protocol`.
//
// Fault injection: `faults loss-control=P loss-data=P until=T seed=S`
// (after `protocol`) installs a deterministic fault plan, and the
// events `at T link-down U V`, `at T link-up U V`, `at T node-down N`
// and `at T node-up N` schedule topology faults (installing an empty
// plan on first use if `faults` was not given). The scmp protocol
// accepts ack=T (reliable JOIN/LEAVE ACK timeout), retries=N and
// refresh=T (soft-state tree refresh interval); `run` quiesces SCMP
// after its deadline, so operations still queued then complete without
// re-arming those periodic timers and the clock drains.
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
// The parser checks syntax only. Each setup line fills the value it
// configures (core.Config, netsim.FaultPlan, netsim.ChurnPlan) and calls
// its Validate, where that value's rules live. The parser owns only the
// numbers no such value holds: times are finite and non-negative, delay
// factors and bandwidths finite and positive, sizes non-negative, and a
// given standby= names a router id >= 1 (core.Config reads 0 as none,
// so node 0 cannot serve). Group ids run from 1 to 2^32-1. An option a
// command does not take is an "unknown option" error, one given twice
// an "option given twice" error (no value silently wins), and every
// malformed script is a "line N: ..." error, never a panic inside the
// simulator.
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"maps"
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
	keys []string // kv's keys in line order
	at   float64  // for "at" commands
	sub  string   // the event verb after "at": join, leave, send, failover
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
				if _, dup := cmd.kv[k]; dup {
					return nil, fmt.Errorf("line %d: option %q given twice", lineNo, k)
				}
				cmd.kv[k] = v
				cmd.keys = append(cmd.keys, k)
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

// domain is the set of values a number the parser owns may take.
type domain struct {
	want string
	ok   func(float64) bool
}

var (
	timeVal  = domain{"a finite time >= 0", func(f float64) bool { return f >= 0 && !math.IsInf(f, 1) }}
	positive = domain{"finite and > 0", func(f float64) bool { return f > 0 && !math.IsInf(f, 1) }}
)

// arg parses positional argument s (strconv syntax, so "inf" and "NaN"
// parse), named what in the error, in d.
func (c command) arg(what, s string, d domain) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !d.ok(f) {
		return 0, fmt.Errorf("line %d: bad %s %q (want %s)", c.line, what, s, d.want)
	}
	return f, nil
}

// take removes option key from c and returns its value: the options left
// after a command ran are the ones it does not know.
func (c command) take(key string) (string, bool) {
	v, ok := c.kv[key]
	delete(c.kv, key)
	return v, ok
}

// option binds one key=value option to the field it sets.
type option struct {
	key string
	dst any
}

// bind parses each option that is given into the field it points to; a
// field keeps its value when its option is absent. It checks syntax
// only: the value's rules belong to whoever holds the field.
func (c command) bind(opts []option) error {
	for _, o := range opts {
		v, ok := c.take(o.key)
		if !ok {
			continue
		}
		var err error
		switch p := o.dst.(type) {
		case *float64:
			*p, err = strconv.ParseFloat(v, 64)
		case *des.Time:
			var f float64
			f, err = strconv.ParseFloat(v, 64)
			*p = des.Time(f)
		case *int:
			*p, err = strconv.Atoi(v)
		case *int64:
			*p, err = strconv.ParseInt(v, 10, 64)
		case *topology.NodeID:
			var n int
			n, err = strconv.Atoi(v)
			*p = topology.NodeID(n)
		case *bool:
			*p, err = strconv.ParseBool(v)
		default:
			panic(fmt.Sprintf("scenario: option %s binds a %T", o.key, o.dst))
		}
		if err != nil {
			return fmt.Errorf("line %d: bad %s=%q", c.line, o.key, v)
		}
	}
	return nil
}

// group reads group=G, 1 when absent.
func (c command) group() (packet.GroupID, error) {
	v, ok := c.take("group")
	if !ok {
		v = "1"
	}
	return c.groupID(v)
}

// groupID parses a group id: 1 to 2^32-1, the ids packet.GroupID holds
// (0 is never a group).
func (c command) groupID(s string) (packet.GroupID, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("line %d: bad group %q (want 1 to 4294967295)", c.line, s)
	}
	return packet.GroupID(n), nil
}

// invalid prefixes a Validate error with the command's line.
func (c command) invalid(err error) error {
	if err != nil {
		return fmt.Errorf("line %d: %w", c.line, err)
	}
	return nil
}

// state is the execution context.
type state struct {
	g         *topology.Graph
	bandwidth float64
	net       *netsim.Network
	scmp      *core.SCMP // non-nil when the protocol is SCMP
	churns    []*netsim.Churn
	steps     []netsim.Step // the at lines since the last run
	scripts   []*netsim.Script
	w         io.Writer
}

// Run executes the script, writing "print" output to w.
func (s *Script) Run(w io.Writer) error {
	st := &state{w: w}
	for _, c := range s.cmds {
		if err := st.exec(c); err != nil {
			return err
		}
	}
	return nil
}

// exec runs one command, then rejects any option it did not take.
func (st *state) exec(c command) error {
	c.kv = maps.Clone(c.kv) // take consumes options; the parsed script stays reusable
	if err := st.dispatch(c); err != nil {
		return err
	}
	for _, k := range c.keys {
		if _, left := c.kv[k]; left {
			return fmt.Errorf("line %d: unknown option %q", c.line, k)
		}
	}
	return nil
}

func (st *state) dispatch(c command) error {
	switch c.verb {
	case "scale-delays", "bandwidth":
		if st.net != nil {
			return fmt.Errorf("line %d: %s must precede protocol", c.line, c.verb)
		}
	case "faults", "churn", "at", "run", "expect", "print":
		if st.net == nil {
			return fmt.Errorf("line %d: %s before protocol", c.line, c.verb)
		}
	}
	switch c.verb {
	case "topology":
		return st.execTopology(c)
	case "scale-delays", "bandwidth":
		if len(c.args) != 1 {
			return fmt.Errorf("line %d: %s needs one number", c.line, c.verb)
		}
		f, err := c.arg(c.verb, c.args[0], positive)
		switch {
		case err != nil:
			return err
		case c.verb == "bandwidth":
			st.bandwidth = f
			return nil
		case st.g == nil:
			return fmt.Errorf("line %d: scale-delays before topology", c.line)
		}
		g, err := st.g.TryScaleDelays(f)
		if err == nil {
			st.g = g
		}
		return c.invalid(err)
	case "protocol":
		return st.execProtocol(c)
	case "faults":
		return st.execFaults(c)
	case "churn":
		plan, err := st.churnPlan(c)
		if err == nil {
			st.churns = append(st.churns, st.net.InstallChurn(plan))
		}
		return err
	case "at":
		return st.execAt(c)
	case "run":
		if len(st.steps) > 0 {
			st.scripts = append(st.scripts, st.net.InstallScript(st.steps))
			st.steps = st.steps[:0]
		}
		if len(c.args) == 1 {
			t, err := c.arg("run deadline", c.args[0], timeVal)
			if err != nil {
				return err
			}
			st.net.RunUntil(des.Time(t))
		}
		// Periodic soft-state timers re-arm forever; quiesce them so the
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
	seed := int64(1)
	if err := c.bind([]option{{"seed", &seed}}); err != nil {
		return err
	}
	rng := rng.New(seed)
	var err error
	switch c.args[0] {
	case "arpanet":
		st.g = topology.Arpanet()
	case "waxman":
		n := 50
		if err = c.bind([]option{{"n", &n}}); err != nil {
			return err
		}
		var wg *topology.WaxmanGraph
		if wg, err = topology.Waxman(topology.DefaultWaxman(n), rng); err == nil {
			st.g = wg.Graph
		}
	case "random":
		n, deg := 50, 3.0
		if err = c.bind([]option{{"n", &n}, {"degree", &deg}}); err != nil {
			return err
		}
		st.g, err = topology.Random(topology.DefaultRandom(n, deg), rng)
	case "transitstub":
		st.g, _, err = topology.TransitStub(topology.DefaultTransitStub(), rng)
	default:
		return fmt.Errorf("line %d: unknown topology %q", c.line, c.args[0])
	}
	return c.invalid(err)
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
	var proto netsim.Protocol
	switch c.args[0] {
	case "scmp":
		// One key per core.Config field; Validate holds the rules.
		cfg := core.Config{Kappa: 1.5}
		_, standby := c.kv["standby"]
		if err := c.bind([]option{
			{"mrouter", &cfg.MRouter}, {"kappa", &cfg.Kappa}, {"standby", &cfg.Standby},
			{"budget", &cfg.DelayBudget}, {"ack", &cfg.AckTimeout}, {"retries", &cfg.RetryCap},
			{"refresh", &cfg.RefreshInterval}, {"service", &cfg.ServiceTime},
			{"procs", &cfg.Processors}, {"admit", &cfg.AdmitLimit},
			{"retry-budget", &cfg.RetryBudget}, {"suppress", &cfg.RefreshSuppress},
		}); err != nil {
			return err
		}
		if standby && cfg.Standby <= 0 {
			return fmt.Errorf("line %d: standby=%d is no router id >= 1 (leave standby out for none)", c.line, cfg.Standby)
		}
		if err := cfg.Validate(g); err != nil {
			return c.invalid(err)
		}
		st.scmp = core.New(cfg)
		proto = st.scmp
	case "dvmrp":
		lifetime := float64(dvmrp.DefaultPruneLifetime)
		if err := c.bind([]option{{"prune", &lifetime}}); err != nil {
			return err
		}
		if !timeVal.ok(lifetime) {
			return fmt.Errorf("line %d: bad prune=%g (want %s)", c.line, lifetime, timeVal.want)
		}
		proto = dvmrp.New(des.Time(lifetime))
	case "mospf":
		proto = mospf.New()
	case "cbt":
		var coreNode topology.NodeID
		if err := c.bind([]option{{"core", &coreNode}}); err != nil {
			return err
		}
		if coreNode < 0 || int(coreNode) >= g.N() {
			return fmt.Errorf("line %d: core=%d out of range (the topology has %d routers)", c.line, coreNode, g.N())
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
	if st.net.Faults() != nil {
		return fmt.Errorf("line %d: faults already installed", c.line)
	}
	plan := netsim.FaultPlan{Seed: 1}
	if err := c.bind([]option{
		{"loss-control", &plan.ControlLoss}, {"loss-data", &plan.DataLoss},
		{"until", &plan.LossUntil}, {"seed", &plan.Seed},
	}); err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return c.invalid(err)
	}
	st.net.InstallFaults(plan)
	return nil
}

// churnPlan reads a generated membership flap schedule:
// `churn <group> <rate> <dist> <duration> members=a,b,c` with optional
// start=T, seed=S and (for pareto) alpha=A.
func (st *state) churnPlan(c command) (netsim.ChurnPlan, error) {
	plan := netsim.ChurnPlan{Seed: 1}
	if len(c.args) != 4 {
		return plan, fmt.Errorf("line %d: churn needs <group> <rate> <dist> <duration>", c.line)
	}
	var err error
	if plan.Group, err = c.groupID(c.args[0]); err != nil {
		return plan, err
	}
	switch c.args[2] {
	case "poisson":
		plan.Dist = netsim.ChurnPoisson
	case "pareto":
		plan.Dist = netsim.ChurnPareto
	default:
		return plan, fmt.Errorf("line %d: unknown churn distribution %q (want poisson or pareto)", c.line, c.args[2])
	}
	var errRate, errDur error
	plan.Rate, errRate = strconv.ParseFloat(c.args[1], 64)
	plan.Duration, errDur = strconv.ParseFloat(c.args[3], 64)
	if errRate != nil || errDur != nil {
		return plan, fmt.Errorf("line %d: bad churn rate %q or duration %q", c.line, c.args[1], c.args[3])
	}
	if mv, ok := c.take("members"); ok {
		for _, f := range strings.Split(mv, ",") {
			n, err := strconv.Atoi(f)
			if err != nil {
				return plan, fmt.Errorf("line %d: bad churn member %q", c.line, f)
			}
			plan.Members = append(plan.Members, topology.NodeID(n))
		}
	}
	if err := c.bind([]option{{"start", &plan.Start}, {"alpha", &plan.Alpha}, {"seed", &plan.Seed}}); err != nil {
		return plan, err
	}
	return plan, c.invalid(plan.Validate(st.net.G.N()))
}

// execAt adds an at line's step to the script the next run installs,
// once CheckStep has passed it against the clock as it is now.
func (st *state) execAt(c command) error {
	step := netsim.Step{At: des.Time(c.at), Kind: netsim.Join}
	for step.Kind <= netsim.Failover && step.Kind.String() != c.sub {
		step.Kind++
	}
	routers := 1
	switch step.Kind {
	case netsim.LinkDown, netsim.LinkUp:
		routers = 2
	case netsim.Failover:
		routers = 0
	case netsim.Failover + 1: // no step kind has that name
		return fmt.Errorf("line %d: unknown event %q", c.line, c.sub)
	}
	if len(c.args) != routers {
		return fmt.Errorf("line %d: %s needs %d router(s)", c.line, c.sub, routers)
	}
	var ids [2]int32
	for i, a := range c.args {
		id, err := strconv.ParseInt(a, 10, 32)
		if err != nil {
			return fmt.Errorf("line %d: bad node %q", c.line, a)
		}
		ids[i] = int32(id)
	}
	step.Node, step.Arg = ids[0], ids[1]
	switch step.Kind {
	case netsim.Join, netsim.Leave, netsim.Send:
		var err error
		if step.Group, err = c.group(); err != nil {
			return err
		}
	case netsim.LinkDown, netsim.LinkUp, netsim.NodeDown, netsim.NodeUp:
		if st.net.Faults() == nil { // a fault step without a faults line gets an empty plan
			st.net.InstallFaults(netsim.FaultPlan{})
		}
	}
	if step.Kind == netsim.Send {
		size := packet.DefaultDataSize
		if err := c.bind([]option{{"size", &size}}); err != nil {
			return err
		}
		if size < 0 || size > math.MaxInt32 {
			return fmt.Errorf("line %d: bad size=%d (want 0 to %d)", c.line, size, math.MaxInt32)
		}
		step.Arg = int32(size)
	}
	if err := st.net.CheckStep(step); err != nil {
		return c.invalid(err)
	}
	st.steps = append(st.steps, step)
	return nil
}

func (st *state) execExpect(c command) error {
	if len(c.args) != 1 || c.args[0] != "delivered" {
		return fmt.Errorf("line %d: only 'expect delivered' is supported", c.line)
	}
	for _, sc := range st.scripts {
		for _, seq := range sc.Sent() {
			missing, anomalous := st.net.CheckDelivery(seq)
			if len(missing) > 0 || len(anomalous) > 0 {
				return fmt.Errorf("line %d: packet %d: missing=%v anomalous=%v",
					c.line, seq, missing, anomalous)
			}
		}
	}
	return nil
}

func (st *state) execPrint(c command) error {
	if len(c.args) != 1 {
		return fmt.Errorf("line %d: print needs a subject", c.line)
	}
	switch c.args[0] {
	case "metrics":
		m := st.net.Metrics
		fmt.Fprintf(st.w, "t=%.3f data_overhead=%.1f proto_overhead=%.1f delivered=%d dropped=%d ctrl_drops=%d recoveries=%d max_e2e=%.4f parks=%d park_recovers=%d sheds=%d\n",
			float64(st.net.Now()), m.DataOverhead(), m.ProtocolOverhead(),
			m.Delivered(), m.Dropped(), m.DroppedControl(), m.Recoveries(), m.MaxEndToEndDelay(),
			m.Parks(), m.ParkRecovers(), m.Sheds())
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
