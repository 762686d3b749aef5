package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestKinds(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "waxman", "-n", "20"},
		{"-kind", "random", "-n", "20"},
		{"-kind", "arpanet"},
		{"-kind", "transitstub", "-transit-domains", "3"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(buf.String(), "graph") {
			t.Fatalf("%v: no DOT output", args)
		}
	}
}

func TestEdgesFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-kind", "random", "-n", "10", "-degree", "3", "-format", "edges"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "# random") {
		t.Fatalf("header = %q", lines[0])
	}
	// 10 nodes at degree 3 -> 15 edges.
	if len(lines)-1 != 15 {
		t.Fatalf("edges = %d, want 15", len(lines)-1)
	}
	for _, l := range lines[1:] {
		if len(strings.Fields(l)) != 4 {
			t.Fatalf("edge line %q", l)
		}
	}
}

func TestDeterministicSeed(t *testing.T) {
	gen := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-kind", "waxman", "-n", "15", "-seed", "9", "-format", "edges"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if gen() != gen() {
		t.Fatal("same seed produced different topologies")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-kind", "nope"},
		{"-format", "nope"},
		{"-kind", "waxman", "-n", "0"},
		{"-badflag"},
		// Flags the selected kind would silently ignore are rejected —
		// no clamping a transit-stub request onto the -n knob or vice
		// versa.
		{"-kind", "transitstub", "-n", "10000"},
		{"-kind", "transitstub", "-degree", "4"},
		{"-kind", "waxman", "-stub-size", "10"},
		{"-kind", "random", "-transit-domains", "5"},
		{"-kind", "arpanet", "-n", "30"},
		{"-kind", "transitstub", "-edge-prob", "1.5"},
		{"-kind", "transitstub", "-stub-size", "0"},
		{"-kind", "transitstub", "-transit-domains", "-1"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestMisplacedFlagIsTheFirstInLexicalOrder: with two flags the kind
// would ignore, every run names the same one, the lexically first.
func TestMisplacedFlagIsTheFirstInLexicalOrder(t *testing.T) {
	const want = `-degree applies to kind random, not "waxman"`
	for i := 0; i < 20; i++ {
		err := run([]string{"-kind", "waxman", "-transit-size", "2", "-degree", "4"}, &bytes.Buffer{})
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %s", i, err, want)
		}
	}
}

// TestTransitStubDimensions: the dimension flags compose to the exact
// requested scale — here the 10k-node instance of the hierarchical-mode
// experiments — and the edge list exports every node's domain label.
func TestTransitStubDimensions(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-kind", "transitstub", "-transit-domains", "5", "-transit-size", "8",
		"-stubs", "3", "-stub-size", "83", "-format", "edges"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "# transitstub n=10000 ") {
		t.Fatalf("header = %q, want a 10000-node transit-stub", lines[0])
	}
	domains := 0
	transit := 0
	maxDomain := -1
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "# domain ") {
			if strings.HasPrefix(l, "#") {
				t.Fatalf("unexpected comment %q", l)
			}
			continue
		}
		f := strings.Fields(l)
		if len(f) != 5 {
			t.Fatalf("domain line %q", l)
		}
		var v, d int
		if _, err := fmt.Sscanf(l, "# domain %d %d", &v, &d); err != nil {
			t.Fatalf("domain line %q: %v", l, err)
		}
		if d > maxDomain {
			maxDomain = d
		}
		if f[4] == "transit" {
			transit++
		}
		domains++
	}
	if domains != 10000 {
		t.Fatalf("%d domain labels, want one per node", domains)
	}
	if transit != 40 {
		t.Fatalf("%d transit nodes, want 40", transit)
	}
	// 5 transit domains + 40*3 stub domains.
	if maxDomain != 5+120-1 {
		t.Fatalf("max domain id %d, want %d", maxDomain, 5+120-1)
	}
}
