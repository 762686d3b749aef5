// Command scmplint runs the repository's custom static-analysis suite —
// the five analyzers of scmp/internal/lint: the determinism analyzers
// (maporder: no range over a map in production code; noclock: math/rand
// only in internal/rng, time only in tests and bench/; floatcmp) and
// the ownership rules (poollife: a pooled packet never outlives its
// frame; detshared: no package-level writes outside tests, no captured
// writes in runner.Map workers) — over module packages
// and exits non-zero when any finding remains. Production code that no
// entry point runs is not a lint finding: `make reach` measures it.
//
// Usage:
//
//	go run ./cmd/scmplint ./...
//	go run ./cmd/scmplint -tests -json ./...
//	go run ./cmd/scmplint -list
//
// Findings print one per line as file:line:col: [analyzer] message, or
// as a stable-sorted JSON array with -json (so CI artifacts diff
// cleanly). -tests extends the analysis to _test.go files.
//
// The only suppression is a "//scmplint:ignore <name> — <reason>"
// comment on the same or preceding line; every other finding fails the
// run. An ignore naming no analyzer of the suite or giving no reason,
// and any other "//scmplint:" comment, is a finding itself, whatever
// -only selects.
//
// Exit codes: 0 clean, 1 findings, 2 load/type-check/usage error (an
// -only naming an unknown analyzer reports the first in the order given).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"scmp/internal/lint"
)

type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, writes findings to
// stdout and errors to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scmplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a stable-sorted JSON array")
	tests := fs.Bool("tests", false, "also load and analyze _test.go files")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: scmplint [-list] [-only a,b] [-tests] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "scmplint:", err)
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		names := strings.Split(*only, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if !slices.ContainsFunc(analyzers, func(a *lint.Analyzer) bool { return a.Name == names[i] }) {
				return fail(fmt.Errorf("unknown analyzer %q (see -list)", names[i]))
			}
		}
		analyzers = slices.DeleteFunc(analyzers, func(a *lint.Analyzer) bool { return !slices.Contains(names, a.Name) })
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return fail(err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return fail(err)
	}
	diags := lint.Check(pkgs, analyzers)

	if *jsonOut {
		moduleDir := loader.ModuleDir()
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			rel, err := filepath.Rel(moduleDir, d.Pos.Filename)
			if err != nil {
				rel = d.Pos.Filename
			}
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer,
				File:     filepath.ToSlash(rel),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "scmplint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
