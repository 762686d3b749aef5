package main

import (
	"bytes"
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
