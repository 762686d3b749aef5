package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, src string) *Script {
	t.Helper()
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runScript(t *testing.T, src string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := parse(t, src).Run(&buf); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, buf.String())
	}
	return buf.String()
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown verb":  "frobnicate 1",
		"at needs time": "at join 5",
		"bad time":      "at minus join 5",
		"negative time": "at -1 join 5",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	s := parse(t, "# only a comment\n\n   \ntopology arpanet # trailing\n")
	if len(s.cmds) != 1 {
		t.Fatalf("cmds = %d", len(s.cmds))
	}
}

func TestRunOrderErrors(t *testing.T) {
	cases := map[string]string{
		"protocol first":    "protocol scmp",
		"event first":       "at 0 join 1",
		"run first":         "run",
		"expect first":      "expect delivered",
		"print first":       "print metrics",
		"double topology":   "topology arpanet\ntopology arpanet",
		"double protocol":   "topology arpanet\nprotocol scmp\nprotocol scmp",
		"unknown topology":  "topology blah",
		"unknown protocol":  "topology arpanet\nprotocol blah",
		"bad node":          "topology arpanet\nprotocol scmp\nat 0 join 99",
		"failover non-scmp": "topology arpanet\nprotocol cbt\nat 0 failover",
		"scale after proto": "topology arpanet\nprotocol scmp\nscale-delays 0.5",
		"unknown event":     "topology arpanet\nprotocol scmp\nat 0 dance 3",
		"bad expect":        "topology arpanet\nprotocol scmp\nexpect miracles",
		"bad print":         "topology arpanet\nprotocol scmp\nprint vibes",
	}
	for name, src := range cases {
		if err := parse(t, src).Run(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: ran", name)
		}
	}
}

const lectureScript = `
# one lecturer, two students
topology random n=20 degree=4 seed=3
scale-delays 0.001
protocol %s
at 0.0 join 5
at 0.1 join 9
at 1.0 send 3 size=1000
at 2.0 send 3
run 5
expect delivered
print metrics
`

func TestScriptAllProtocols(t *testing.T) {
	for _, proto := range []string{"scmp mrouter=0 kappa=1.5", "dvmrp prune=10", "mospf", "cbt core=0"} {
		src := strings.Replace(lectureScript, "%s", proto, 1)
		out := runScript(t, src)
		if !strings.Contains(out, "delivered=4") {
			t.Errorf("%s: output %q lacks delivered=4", proto, out)
		}
	}
}

func TestScriptPrintTree(t *testing.T) {
	out := runScript(t, `
topology arpanet
protocol scmp mrouter=0
at 0 join 5
run
print tree group=1
print tree group=9
`)
	if !strings.Contains(out, "root=0") || !strings.Contains(out, "members=[5]") {
		t.Fatalf("tree output: %q", out)
	}
	if !strings.Contains(out, "group 9: no tree") {
		t.Fatalf("missing no-tree line: %q", out)
	}
}

func TestScriptFailover(t *testing.T) {
	out := runScript(t, `
topology random n=20 degree=4 seed=7
scale-delays 0.001
protocol scmp mrouter=1 standby=2
at 0.0 join 5
at 0.1 join 9
at 1.0 failover
at 2.0 send 3
run 5
expect delivered
print tree
`)
	if !strings.Contains(out, "root=2") {
		t.Fatalf("tree not re-rooted at standby: %q", out)
	}
}

func TestScriptLeave(t *testing.T) {
	runScript(t, `
topology random n=15 degree=3 seed=2
scale-delays 0.001
protocol scmp
at 0.0 join 5
at 0.1 join 9
at 1.0 leave 5
at 2.0 send 0
run 5
expect delivered
`)
}

func TestScriptKappaInf(t *testing.T) {
	runScript(t, `
topology waxman n=25 seed=4
protocol scmp kappa=inf
at 0 join 7
run
expect delivered
print tree
`)
}

func TestScriptTransitStub(t *testing.T) {
	out := runScript(t, `
topology transitstub seed=2
scale-delays 0.001
protocol cbt core=0
at 0 join 30
at 1 send 40
run 5
expect delivered
print metrics
`)
	if !strings.Contains(out, "delivered=1") {
		t.Fatalf("output: %q", out)
	}
}

func TestScriptBandwidth(t *testing.T) {
	// With finite bandwidth the max end-to-end delay must exceed the
	// infinite-bandwidth run of the same scenario.
	base := `
topology random n=15 degree=3 seed=6
scale-delays 0.001
%s
protocol scmp
at 0.0 join 5
at 0.1 join 9
at 1.0 send 3 size=10000
run 10
expect delivered
print metrics
`
	slow := runScript(t, strings.Replace(base, "%s", "bandwidth 100000", 1))
	fast := runScript(t, strings.Replace(base, "%s", "", 1))
	pick := func(out string) float64 {
		i := strings.Index(out, "max_e2e=")
		var v float64
		if _, err := fmt.Sscanf(out[i:], "max_e2e=%f", &v); err != nil {
			t.Fatalf("parse %q: %v", out, err)
		}
		return v
	}
	if pick(slow) <= pick(fast) {
		t.Fatalf("finite bandwidth did not add delay: slow %v fast %v", pick(slow), pick(fast))
	}
}

func TestScriptBandwidthErrors(t *testing.T) {
	for name, src := range map[string]string{
		"after protocol": "topology arpanet\nprotocol scmp\nbandwidth 100",
		"missing value":  "topology arpanet\nbandwidth\nprotocol scmp",
		"negative":       "topology arpanet\nbandwidth -5\nprotocol scmp",
	} {
		if err := parse(t, src).Run(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScriptFaultEvents(t *testing.T) {
	// A node crash strands the member; the restart re-reports it and the
	// healing stack re-grafts, so the late send still reaches everyone.
	out := runScript(t, `
topology arpanet
scale-delays 0.001
protocol scmp mrouter=0 ack=0.05 retries=8 refresh=1
faults seed=3
at 0.0 join 5
at 1.0 node-down 2
at 2.0 node-up 2
at 4.0 send 0
run 8
expect delivered
print metrics
`)
	if !strings.Contains(out, "delivered=1") {
		t.Fatalf("output: %q", out)
	}
}

func TestScriptLossyFaultsHeal(t *testing.T) {
	out := runScript(t, `
topology random n=20 degree=4 seed=3
scale-delays 0.001
protocol scmp mrouter=0 ack=0.05 retries=8 refresh=1
faults loss-control=1 until=2 seed=5
at 0.0 join 5
at 4.0 send 0 # the retransmit ladder escapes the window at t=3.15
run 6
expect delivered
print metrics
`)
	if !strings.Contains(out, "ctrl_drops=") || strings.Contains(out, "ctrl_drops=0 ") {
		t.Fatalf("total loss window left no control drops: %q", out)
	}
}

// TestScriptRunDrainsServiceBacklog: churn far above the m-router's
// service rate leaves about a minute of queued operations at the run
// deadline. The run's Quiesce must keep the operations completing
// after it from re-arming refresh, so the drain returns.
func TestScriptRunDrainsServiceBacklog(t *testing.T) {
	script := parse(t, `
topology random n=30 degree=3 seed=9
scale-delays 0.001
protocol scmp mrouter=0 kappa=1.5 ack=0.05 retries=8 refresh=1 service=0.05 procs=1
churn 1 400 poisson 3 members=5,9,14,17,22,26 seed=7
at 0.0 join 3
run 4
print churn
`)
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		if err := script.Run(&buf); err != nil {
			buf.WriteString(err.Error())
		}
		done <- buf.String()
	}()
	select {
	case out := <-done:
		if !strings.Contains(out, "churn group 1: dist=poisson rate=400 events=1168") {
			t.Fatalf("output: %q", out)
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return: the drain after Quiesce never ends")
	}
}

func TestScriptFaultErrors(t *testing.T) {
	for name, src := range map[string]string{
		"faults before protocol": "topology arpanet\nfaults seed=1\nprotocol scmp",
		"double faults":          "topology arpanet\nprotocol scmp\nfaults seed=1\nfaults seed=2",
		"faults after event":     "topology arpanet\nprotocol scmp\nat 0 node-down 2\nfaults seed=1",
		"loss out of range":      "topology arpanet\nprotocol scmp\nfaults loss-control=1.5",
		"link-down one arg":      "topology arpanet\nprotocol scmp\nat 0 link-down 2",
		"link-down non-edge":     "topology arpanet\nprotocol scmp\nat 0 link-down 0 99",
		"node-down bad node":     "topology arpanet\nprotocol scmp\nat 0 node-down 99",
	} {
		if err := parse(t, src).Run(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExpectDeliveredFails(t *testing.T) {
	// A send with no members delivers vacuously; force a failure by
	// sending while the join is still propagating with huge delays.
	src := `
topology waxman n=30 seed=5
protocol scmp
at 0.0 join 7
at 0.0001 send 3
run
expect delivered
`
	err := parse(t, src).Run(&bytes.Buffer{})
	if err == nil {
		t.Skip("race did not materialise on this topology") // defensive
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v", err)
	}
}

// TestMalformedScriptErrors: each malformed value is a "line N: ..."
// error from Parse or Run, not a panic (or a hang) inside the simulator.
func TestMalformedScriptErrors(t *testing.T) {
	const head = "topology arpanet\n"
	for _, tc := range []struct {
		name, src string
		line      int
	}{
		{"NaN event time", head + "protocol scmp\nat NaN join 5", 3},
		{"infinite event time", head + "protocol scmp\nat inf join 5", 3},
		{"mrouter out of range", head + "protocol scmp mrouter=99", 2},
		{"negative mrouter", head + "protocol scmp mrouter=-1", 2},
		{"standby out of range", head + "protocol scmp standby=99", 2},
		{"standby is the mrouter", head + "protocol scmp mrouter=3 standby=3", 2},
		// A non-positive standby used to mean none, so the script failed
		// only at its failover; the negative counts used to mean default.
		{"standby zero", head + "protocol scmp mrouter=3 standby=0", 2},
		{"negative standby", head + "protocol scmp standby=-2", 2},
		{"negative procs", head + "protocol scmp procs=-1", 2},
		{"negative admit", head + "protocol scmp admit=-1", 2},
		{"negative retries", head + "protocol scmp retries=-1", 2},
		{"negative retry budget", head + "protocol scmp retry-budget=-2", 2},
		{"cbt core out of range", head + "protocol cbt core=99", 2},
		{"NaN delay scale", head + "scale-delays NaN\nprotocol scmp", 2},
		// Scaled delays used to overflow to +Inf (a panic on the first
		// unicast) or underflow to subnormals (a run on zero delays).
		{"delay scale overflows", "# conference.scn\ntopology random n=30 degree=4 seed=7\nscale-delays 1e308\nprotocol scmp\nat 0 join 3\nrun 1", 3},
		{"delay scale underflows", "# conference.scn\ntopology random n=30 degree=4 seed=7\nscale-delays 1e-320\nprotocol scmp\nat 0 join 3\nrun 1", 3},
		{"delay scale before topology", "scale-delays 0.001\n" + head + "protocol scmp", 1},
		{"NaN bandwidth", head + "bandwidth NaN\nprotocol scmp", 2},
		{"infinite bandwidth", head + "bandwidth inf\nprotocol scmp", 2},
		{"NaN churn rate", head + "protocol scmp\nchurn 1 NaN poisson 1 members=1,2", 3},
		{"infinite churn duration", head + "protocol scmp\nchurn 1 10 poisson inf members=1,2", 3},
		{"NaN churn start", head + "protocol scmp\nchurn 1 10 poisson 1 members=1,2 start=NaN", 3},
		{"NaN pareto alpha", head + "protocol scmp\nchurn 1 10 pareto 1 members=1,2 alpha=NaN", 3},
		{"NaN control loss", head + "protocol scmp\nfaults loss-control=NaN", 3},
		{"NaN loss window", head + "protocol scmp\nfaults loss-control=0.1 until=NaN", 3},
		{"NaN kappa", head + "protocol scmp kappa=NaN", 2},
		{"kappa below 1", head + "protocol scmp kappa=0.5", 2},
		{"NaN ack timeout", head + "protocol scmp ack=NaN", 2},
		{"negative service time", head + "protocol scmp service=-1", 2},
		{"NaN run deadline", head + "protocol scmp\nrun NaN", 3},
		{"negative data size", head + "bandwidth 1000\nprotocol scmp\nat 1 send 3 size=-100000", 4},
		// Misspelt options used to be ignored, so the run went on at the
		// default; group ids used to wrap to 32 bits.
		{"misspelt scmp option", head + "protocol scmp kapa=0.2", 2},
		{"misspelt topology option", "topology random n=20 sed=3\nprotocol scmp", 1},
		{"misspelt fault option", head + "protocol scmp\nfaults loss-kontrol=0.5", 3},
		{"misspelt churn option", head + "protocol scmp\nchurn 1 10 poisson 1 members=1,2 strat=1", 3},
		{"misspelt send option", head + "protocol scmp\nat 1 send 3 sise=100", 3},
		{"option a command does not take", head + "protocol mospf prune=3", 2},
		// A repeated option used to keep its last value unchecked.
		{"repeated option", head + "protocol scmp mrouter=99 mrouter=0\nat 0 join 5\nrun 1", 2},
		{"repeated churn member", head + "protocol scmp\nchurn 1 40 poisson 3 members=5,5 seed=7", 3},
		{"group on a failover", head + "protocol scmp standby=2\nat 1 failover group=2", 3},
		// SCMP has Failover(), but with no standby it used to panic mid-run.
		{"failover without a standby", head + "protocol scmp mrouter=0\nat 1 failover\nrun 5", 3},
		{"group on print metrics", head + "protocol scmp\nprint metrics group=2", 3},
		{"negative group", head + "protocol scmp\nat 0 join 5 group=-1", 3},
		{"group zero", head + "protocol scmp\nat 0 join 5 group=0", 3},
		{"group above 2^32-1", head + "protocol scmp\nat 0 join 5 group=4294967297", 3},
		{"negative leave group", head + "protocol scmp\nat 0 leave 5 group=-3", 3},
		{"send group above 2^32-1", head + "protocol scmp\nat 0 send 5 group=4294967296", 3},
		{"churn group above 2^32-1", head + "protocol scmp\nchurn 4294967297 10 poisson 1 members=1,2", 3},
		{"negative print group", head + "protocol scmp\nprint tree group=-1", 3},
		// An at line earlier than the clock used to panic inside des.
		{"join before the clock", "topology random n=20 degree=3 seed=2\nscale-delays 0.001\nprotocol scmp mrouter=0\nat 0.0 join 3\nrun 4\nat 0.5 join 5\nrun", 6},
		{"fault before the clock", head + "protocol scmp\nrun 2\nat 1 node-down 3\nrun", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				err = s.Run(&bytes.Buffer{})
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if want := fmt.Sprintf("line %d: ", tc.line); !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("error %q, want it to start %q", err, want)
			}
		})
	}
}
