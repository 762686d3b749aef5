package lint

import (
	"go/types"
	"strings"
	"sync"
	"testing"
)

// runOn type-checks src as a synthetic package at importPath and
// returns the analyzer's findings as formatted strings.
func runOn(t *testing.T, a *Analyzer, importPath, src string) []string {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckSource(importPath, map[string]string{importPath + "/x.go": src})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range Check([]*Package{pkg}, []*Analyzer{a}) {
		out = append(out, d.String())
	}
	return out
}

func wantFindings(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d finding(s) %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want it to mention %q", i, got[i], w)
		}
	}
}

func TestMapOrderFlagsUnsortedSend(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core", `
package core
type pkt struct{}
type net struct{}
func (net) SendLink(to int, p pkt) {}
func fanOut(n net, downstream map[int]bool) {
	for d := range downstream {
		n.SendLink(d, pkt{})
	}
}`)
	wantFindings(t, got, "range over map downstream is iteration-order dependent")
}

func TestMapOrderFlagsEscapingAppend(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core", `
package core
func collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}`)
	wantFindings(t, got, "appends to keys")
}

func TestMapOrderAllowsCollectThenSort(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core", `
package core
import "sort"
func collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}`)
	wantFindings(t, got)
}

func TestMapOrderAllowsLoopLocalAppendAndPureReads(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core", `
package core
func sum(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		parts := []float64{}
		parts = append(parts, v)
		total += parts[0]
	}
	return total
}`)
	wantFindings(t, got)
}

func TestMapOrderIgnoreComment(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core", `
package core
func emit(m map[int]bool, send func(int)) {
	//scmplint:ignore maporder — order independent by construction
	for k := range m {
		send(k)
	}
}`)
	wantFindings(t, got)
}

func TestNoClockFlagsWallClockInStrictPackage(t *testing.T) {
	got := runOn(t, NoClock, "scmp/internal/des", `
package des
import "time"
func stamp() int64 { return time.Now().UnixNano() }`)
	wantFindings(t, got, "wall-clock time.Now")
}

func TestNoClockAllowsWallClockOutsideStrictPackages(t *testing.T) {
	got := runOn(t, NoClock, "scmp/cmd/scmpsim", `
package main
import "time"
func stamp() int64 { return time.Now().UnixNano() }`)
	wantFindings(t, got)
}

func TestNoClockFlagsGlobalRandEverywhere(t *testing.T) {
	got := runOn(t, NoClock, "scmp/internal/experiment", `
package experiment
import "math/rand"
func draw() int { return rand.Intn(10) }`)
	wantFindings(t, got, "global rand.Intn")
}

func TestNoClockFlagsDirectConstructionOutsideRng(t *testing.T) {
	got := runOn(t, NoClock, "scmp/internal/experiment", `
package experiment
import "math/rand"
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`)
	wantFindings(t, got, "direct rand.New", "direct rand.NewSource")
}

func TestNoClockAllowsTypeReferencesAndRngPackage(t *testing.T) {
	got := runOn(t, NoClock, "scmp/internal/rng", `
package rng
import "math/rand"
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`)
	wantFindings(t, got)
}

func TestFloatCmpFlagsComputedEquality(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/mtree", `
package mtree
func tie(a, b float64) bool { return a == b }`)
	wantFindings(t, got, "floating-point ==")
}

func TestFloatCmpAllowsConstantsOrderingAndOtherPackages(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/mtree", `
package mtree
func sentinel(a float64) bool { return a == 0 }
func order(a, b float64) bool { return a < b }`)
	wantFindings(t, got)
	got = runOn(t, FloatCmp, "scmp/internal/experiment", `
package experiment
func tie(a, b float64) bool { return a == b }`)
	wantFindings(t, got)
}

func TestNamedFloatTypesAreFlagged(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/des", `
package des
type Time float64
func same(a, b Time) bool { return a == b }`)
	wantFindings(t, got, "floating-point ==")
}

// An ignore's analyzer names end at the "—" (or "--") that starts its
// reason, so a word of the reason is never read as a name: "all" there
// must not silence floatcmp.
func TestIgnoreReasonIsNotAnAnalyzerName(t *testing.T) {
	for _, sep := range []string{"—", "--"} {
		got := runOn(t, FloatCmp, "scmp/internal/mtree", `
package mtree
func tie(a, b float64) bool {
	//scmplint:ignore maporder `+sep+` all amortised
	return a == b
}`)
		wantFindings(t, got, "floating-point ==")
	}
	verb, names, reason, ok := directive("//scmplint:ignore noclock maporder — read by all callers")
	if !ok || verb != "ignore" || len(names) != 2 || names[0] != "noclock" || names[1] != "maporder" || reason != "read by all callers" {
		t.Fatalf("directive = %q, %q, %q, %v", verb, names, reason, ok)
	}
}

// TestMalformedDirectivesAreFindings: the one directive is
// "//scmplint:ignore <analyzer> — <reason>". A bare ignore, one naming
// no analyzer of the suite, one without a reason and any other verb
// (a stale hotpath) are each a finding, whichever analyzers run, and
// silence nothing.
func TestMalformedDirectivesAreFindings(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/mtree", `
package mtree
func bare(a, b float64) bool {
	//scmplint:ignore
	return a == b
}
func unknown(a, b float64) bool {
	return a == b //scmplint:ignore hotalloc — amortised
}
func reasonless(a, b float64) bool {
	return a == b //scmplint:ignore floatcmp
}
//scmplint:hotpath
func hot() {}
func kept(a, b float64) bool {
	return a == b //scmplint:ignore floatcmp — exact by construction
}`)
	wantFindings(t, got,
		"[scmplint] ignore names no analyzer",
		"[floatcmp] floating-point ==",
		"[floatcmp] floating-point ==",
		`[scmplint] ignore names "hotalloc", which is no analyzer`,
		"[scmplint] ignore without a reason",
		"[scmplint] unknown directive scmplint:hotpath")
}

// TestLoadersShareTheStandardLibrary builds and uses loaders from
// several goroutines at once: each must resolve a standard-library
// import to the one package the process-wide importer checked.
func TestLoadersShareTheStandardLibrary(t *testing.T) {
	const loaders = 4
	got := make([]*types.Package, loaders)
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loader, err := NewLoader(".")
			if err != nil {
				errs[i] = err
				return
			}
			pkg, err := loader.CheckSource("scmp/internal/zz", map[string]string{
				"scmp/internal/zz/x.go": "package zz\nimport \"go/types\"\nvar _ = types.NewPackage",
			})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = pkg.Types.Imports()[0]
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("loader %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("loader %d imported go/types as %p, loader 0 as %p", i, got[i], got[0])
		}
	}
}
