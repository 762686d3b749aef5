// Command scmplint runs the repository's custom static-analysis suite —
// the five analyzers of scmp/internal/lint: the determinism analyzers
// (maporder, noclock, floatcmp) and the dataflow analyzers (poollife,
// detshared) — over module packages and exits non-zero when any finding
// remains. Production code that no entry point runs is not a lint
// finding: `make reach` measures it.
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
// Exit codes: 0 clean, 1 findings, 2 load/type-check/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a stable-sorted JSON array")
	tests := flag.Bool("tests", false, "also load and analyze _test.go files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scmplint [-list] [-only a,b] [-tests] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var selected []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "scmplint: unknown analyzer %q (see -list)\n", name)
			os.Exit(2)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scmplint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scmplint:", err)
	os.Exit(2)
}
