// Command scmplint runs the repository's custom static-analysis suite —
// the determinism analyzers, the dataflow analyzers (poollife, hotalloc,
// detshared) and testonly in scmp/internal/lint — over module packages
// and exits non-zero when any unsuppressed finding remains. testonly is
// whole-program: it reports only when the patterns load a main package,
// so run it over ./... .
//
// Usage:
//
//	go run ./cmd/scmplint ./...
//	go run ./cmd/scmplint -tests -json ./...
//	go run ./cmd/scmplint -list
//	go run ./cmd/scmplint -write-baseline ./...
//
// Findings print one per line as file:line:col: [analyzer] message, or
// as a stable-sorted JSON array with -json (suppressed findings are
// included there, marked, so CI artifacts diff cleanly). -tests extends
// the analysis to _test.go files.
//
// Suppression has two layers: a "//scmplint:ignore <name> — <reason>"
// comment on the same or preceding line for point exemptions (a testonly
// one must give its reason), and the checked-in
// baseline (-baseline, default .scmplint-baseline.json at the module
// root) for reviewed findings; every baseline entry must carry a
// justification, stale entries fail the run, and -write-baseline
// regenerates the file from the current findings while preserving
// existing justifications.
//
// Exit codes: 0 clean, 1 unsuppressed findings (or a rotten baseline),
// 2 load/type-check/usage error.
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
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a stable-sorted JSON array")
	tests := flag.Bool("tests", false, "also load and analyze _test.go files")
	baselinePath := flag.String("baseline", ".scmplint-baseline.json", "suppression baseline file, relative to the module root (empty disables)")
	writeBaseline := flag.Bool("write-baseline", false, "regenerate the baseline from current findings and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scmplint [-list] [-only a,b] [-tests] [-json] [-baseline file] [-write-baseline] [packages]\n")
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
	moduleDir := loader.ModuleDir()

	var baseline *lint.Baseline
	var bpath string
	if *baselinePath != "" {
		bpath = *baselinePath
		if !filepath.IsAbs(bpath) {
			bpath = filepath.Join(moduleDir, bpath)
		}
		baseline, err = lint.LoadBaseline(bpath)
		if err != nil {
			fatal(err)
		}
	} else {
		baseline = &lint.Baseline{}
	}

	if *writeBaseline {
		if bpath == "" {
			fatal(fmt.Errorf("scmplint: -write-baseline needs a -baseline path"))
		}
		nb := lint.NewBaseline(diags, moduleDir, baseline)
		if err := nb.Write(bpath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "scmplint: wrote %d entr%s to %s\n",
			len(nb.Entries), plural(len(nb.Entries), "y", "ies"), bpath)
		for _, e := range nb.Unjustified() {
			fmt.Fprintf(os.Stderr, "scmplint: entry needs a justification: [%s] %s: %s\n", e.Analyzer, e.File, e.Message)
		}
		return
	}

	if unj := baseline.Unjustified(); len(unj) > 0 {
		for _, e := range unj {
			fmt.Fprintf(os.Stderr, "scmplint: baseline entry without justification: [%s] %s: %s\n", e.Analyzer, e.File, e.Message)
		}
		os.Exit(2)
	}

	unsuppressed, stale := baseline.Filter(diags, moduleDir)

	if *jsonOut {
		suppressedSet := make(map[lint.Diagnostic]bool, len(unsuppressed))
		for _, d := range unsuppressed {
			suppressedSet[d] = true // actually the NOT-suppressed set
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			rel, err := filepath.Rel(moduleDir, d.Pos.Filename)
			if err != nil {
				rel = d.Pos.Filename
			}
			out = append(out, jsonDiag{
				Analyzer:   d.Analyzer,
				File:       filepath.ToSlash(rel),
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Message:    d.Message,
				Suppressed: !suppressedSet[d],
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range unsuppressed {
			fmt.Println(d)
		}
	}

	bad := false
	if len(unsuppressed) > 0 {
		fmt.Fprintf(os.Stderr, "scmplint: %d unsuppressed finding(s) in %d package(s)\n", len(unsuppressed), len(pkgs))
		bad = true
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "scmplint: stale baseline entry (matched nothing): [%s] %s: %s (count %d)\n", e.Analyzer, e.File, e.Message, e.Count)
		bad = true
	}
	if len(stale) > 0 {
		fmt.Fprintln(os.Stderr, "scmplint: run `make lint-baseline` to regenerate the baseline")
	}
	if bad {
		os.Exit(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scmplint:", err)
	os.Exit(2)
}
