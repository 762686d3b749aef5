package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestAlgorithms(t *testing.T) {
	for _, algo := range []string{"dcdm", "kmb", "spt"} {
		var buf bytes.Buffer
		if err := run([]string{"-algo", algo, "-n", "20", "-group", "5", "-seed", "2"}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := buf.String()
		if !strings.Contains(out, "tree cost=") || !strings.Contains(out, "style=bold") {
			t.Fatalf("%s output incomplete:\n%s", algo, out)
		}
	}
}

func TestUnconstrainedKappa(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "dcdm", "-kappa", "0", "-n", "20", "-group", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-algo", "nope"},
		{"-group", "50", "-n", "20"},
		{"-root", "99", "-n", "20"},
		{"-badflag"},
		{"-kappa", "NaN", "-n", "20"},
		{"-kappa", "0.5", "-n", "20"},
		{"-group", "0", "-n", "20"},
		{"-group", "-1", "-n", "20"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
