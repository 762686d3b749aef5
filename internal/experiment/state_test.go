package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func smallState() StateConfig {
	return StateConfig{
		Nodes: 30, Degree: 4,
		Groups:  []int{1, 4},
		Members: 5, Senders: 3, PacketsPer: 1,
		Seeds: 2,
	}
}

func TestStateScalabilityShape(t *testing.T) {
	tab := RunState(smallState())
	type entries struct{ max, sum float64 }
	get := func(groups int, proto string) entries {
		e := entries{tab.Value("max_state_mean", groups, proto), tab.Value("sum_state_mean", groups, proto)}
		if math.IsNaN(e.sum) {
			t.Fatalf("missing cell %d/%s", groups, proto)
		}
		return e
	}
	for _, proto := range Protocols {
		one, four := get(1, proto), get(4, proto)
		if four.sum <= one.sum {
			t.Fatalf("%s: state did not grow with groups (%.0f -> %.0f)",
				proto, one.sum, four.sum)
		}
	}
	// The paper's argument: per-(source,group) protocols hold much more
	// state than per-group protocols under multi-source workloads.
	for _, groups := range []int{1, 4} {
		scmp := get(groups, "SCMP").sum
		cbt := get(groups, "CBT").sum
		dvmrp := get(groups, "DVMRP").sum
		mospf := get(groups, "MOSPF").sum
		if dvmrp <= scmp || mospf <= scmp {
			t.Fatalf("groups=%d: SPT-based state (dvmrp %.0f, mospf %.0f) not above SCMP (%.0f)",
				groups, dvmrp, mospf, scmp)
		}
		if dvmrp <= cbt || mospf <= cbt {
			t.Fatalf("groups=%d: SPT-based state not above CBT", groups)
		}
	}
	// SCMP's per-router state is bounded by the group count.
	if got := get(4, "SCMP").max; got > 4 {
		t.Fatalf("SCMP max per-router state %.1f exceeds group count 4", got)
	}
}

func TestWriteState(t *testing.T) {
	var buf bytes.Buffer
	WriteState(&buf, RunState(StateConfig{
		Nodes: 20, Degree: 3, Groups: []int{2}, Members: 4, Senders: 2, PacketsPer: 1, Seeds: 1,
	}))
	out := buf.String()
	for _, want := range []string{"Routing state", "SCMP", "DVMRP", "MOSPF", "CBT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
