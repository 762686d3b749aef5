package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestOnlyNamesFirstUnknownAnalyzer: with several unknown names, -only
// reports the first in the order given, every run, and exits 2.
func TestOnlyNamesFirstUnknownAnalyzer(t *testing.T) {
	const want = "scmplint: unknown analyzer \"zzz\" (see -list)\n"
	for i := 0; i < 20; i++ {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-only", "zzz,aaa,mmm"}, &stdout, &stderr)
		if code != 2 || stderr.String() != want || stdout.Len() != 0 {
			t.Fatalf("run %d: exit %d, stderr %q, stdout %q; want exit 2, stderr %q", i, code, stderr.String(), stdout.String(), want)
		}
	}
}

// TestPoolLifeCorpusUnderItsOwnPath: scmplint over the poollife corpus's
// directory, whose import path ends in netsim as the simulator's does,
// reports a poollife finding on exactly the lines the corpus's want
// comments name — the expression rule's ("pooled packet …") as well as
// putPacket's.
func TestPoolLifeCorpusUnderItsOwnPath(t *testing.T) {
	const dir = "./internal/lint/testdata/poollife/netsim" // patterns resolve from the module root
	src, err := os.ReadFile("../.." + dir[1:] + "/packet.go")
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "// want ") {
			want = append(want, i+1)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "poollife", "-json", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatal(err)
	}
	var got []int
	expr := 0
	for _, d := range diags {
		got = append(got, d.Line)
		if strings.HasPrefix(d.Message, "pooled packet ") {
			expr++
		}
	}
	if !slices.Equal(got, want) || expr == 0 {
		t.Fatalf("findings on lines %v (%d from the expression rule), want lines %v with expression-rule findings among them", got, expr, want)
	}
}
