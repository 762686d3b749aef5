package lint

import (
	"go/types"
	"path"
	"strings"
	"sync"
	"testing"
)

// runOn type-checks src as the one file of a synthetic package (the
// package's import path is file's directory) and returns the analyzer's
// findings as formatted strings.
func runOn(t *testing.T, a *Analyzer, file, src string) []string {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckSource(path.Dir(file), map[string]string{file: src})
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

// The maporder tests keep the old heuristic's fixtures. The exact rule
// no longer reads a walk's body, so each fixture's map range is flagged
// in production code whatever it does; what is allowed is a walk in a
// test file or bench/, and a loop over anything but a map.

func TestMapOrderFlagsUnsortedSend(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core/x.go", `
package core
type pkt struct{}
type net struct{}
func (net) SendLink(to int, p pkt) {}
func fanOut(n net, downstream map[int]bool) {
	for d := range downstream {
		n.SendLink(d, pkt{})
	}
}`)
	wantFindings(t, got, "range over map downstream")
}

func TestMapOrderFlagsEscapingAppend(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core/x.go", `
package core
func collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}`)
	wantFindings(t, got, "range over map m")
}

// TestMapOrderAllowsCollectThenSort: a collect-then-sort walk is allowed
// only where every map walk is, in test files and the frozen bench/
// (whose three map ranges have this shape). In production code the
// sort afterwards is not looked for and the range is flagged.
func TestMapOrderAllowsCollectThenSort(t *testing.T) {
	const body = `
import "sort"
func collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}`
	wantFindings(t, runOn(t, MapOrder, "scmp/internal/core/x_test.go", "package core"+body))
	wantFindings(t, runOn(t, MapOrder, "scmp/bench/x.go", "package main"+body))
	wantFindings(t, runOn(t, MapOrder, "scmp/internal/core/x.go", "package core"+body), "range over map m")
}

// TestMapOrderAllowsLoopLocalAppendAndPureReads: a loop-local append and
// pure reads are allowed over a slice or a ~[]E type parameter, and the
// map is read by key. The same body ranging over a map, or over a type
// parameter constrained to maps, is flagged.
func TestMapOrderAllowsLoopLocalAppendAndPureReads(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core/x.go", `
package core
func sum[S ~[]int](m map[int]float64, keys S) float64 {
	total := 0.0
	for _, k := range keys {
		parts := []float64{}
		parts = append(parts, m[k])
		total += parts[0]
	}
	return total
}
func sumMap(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		parts := []float64{}
		parts = append(parts, v)
		total += parts[0]
	}
	return total
}
func sumParam[M ~map[int]float64](m M) (total float64) {
	for _, v := range m {
		total += v
	}
	return total
}`)
	wantFindings(t, got, "range over map m", "range over map m")
}

func TestMapOrderIgnoreComment(t *testing.T) {
	got := runOn(t, MapOrder, "scmp/internal/core/x.go", `
package core
func emit(m map[int]bool, send func(int)) {
	//scmplint:ignore maporder — order independent by construction
	for k := range m {
		send(k)
	}
}`)
	wantFindings(t, got)
}

// TestNoClockFlagsWallClockInStrictPackage: des was on the old strict
// list; the import rule flags time in it as in any production package.
func TestNoClockFlagsWallClockInStrictPackage(t *testing.T) {
	got := runOn(t, NoClock, "scmp/internal/des/x.go", `
package des
import "time"
func stamp() int64 { return time.Now().UnixNano() }`)
	wantFindings(t, got, "imports time")
}

// TestNoClockAllowsWallClockOutsideStrictPackages: no strict-package
// list is left. Outside the rule means bench/ only (and test files); a
// command is flagged like core, for a type reference too.
func TestNoClockAllowsWallClockOutsideStrictPackages(t *testing.T) {
	const stamp = `
import "time"
func stamp() int64 { return time.Now().UnixNano() }`
	wantFindings(t, runOn(t, NoClock, "scmp/bench/x.go", "package main"+stamp))
	wantFindings(t, runOn(t, NoClock, "scmp/cmd/scmpsim/x.go", "package main"+stamp), "imports time")
	wantFindings(t, runOn(t, NoClock, "scmp/cmd/scmpsim/x.go", `package main
import "time"
var timeout time.Duration`), "imports time")
}

// TestNoClockFlagsGlobalRandEverywhere: outside internal/rng, importing
// math/rand or math/rand/v2 is the finding, whatever the file calls.
func TestNoClockFlagsGlobalRandEverywhere(t *testing.T) {
	wantFindings(t, runOn(t, NoClock, "scmp/internal/experiment/x.go", `package experiment
import "math/rand"
func draw() int { return rand.Intn(10) }`), "imports math/rand")
	wantFindings(t, runOn(t, NoClock, "scmp/internal/experiment/x.go", `package experiment
import "math/rand/v2"
func draw() int { return rand.IntN(10) }`), "imports math/rand/v2")
}

// mkRand constructs a generator directly from math/rand.
const mkRand = `
import "math/rand"
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`

// TestNoClockFlagsDirectConstructionOutsideRng: seeding a generator by
// hand outside internal/rng is one finding, the import.
func TestNoClockFlagsDirectConstructionOutsideRng(t *testing.T) {
	got := runOn(t, NoClock, "scmp/internal/experiment/x.go", "package experiment"+mkRand)
	wantFindings(t, got, "imports math/rand")
}

// TestNoClockAllowsTypeReferencesAndRngPackage: internal/rng imports
// math/rand, its tests too, and other packages refer to the generator
// through its alias, rng.Rand.
func TestNoClockAllowsTypeReferencesAndRngPackage(t *testing.T) {
	wantFindings(t, runOn(t, NoClock, "scmp/internal/rng/x.go", "package rng"+mkRand))
	wantFindings(t, runOn(t, NoClock, "scmp/internal/rng/x_test.go", "package rng"+mkRand))
	wantFindings(t, runOn(t, NoClock, "scmp/internal/topology/x.go", `package topology
import "scmp/internal/rng"
func draw(r *rng.Rand) int { return r.Intn(10) }`))
}

// TestNoClockRelaxedInTestFiles: a test file may import time, but not
// math/rand; tests draw from rng.New(seed) too.
func TestNoClockRelaxedInTestFiles(t *testing.T) {
	wantFindings(t, runOn(t, NoClock, "scmp/internal/core/x_test.go", `package core
import "time"
func stamp() int64 { return time.Now().UnixNano() }`))
	got := runOn(t, NoClock, "scmp/internal/experiment/x_test.go", `package experiment
import "math/rand"
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func draw() int { return rand.Intn(10) }`)
	wantFindings(t, got, "imports math/rand")
}

func TestFloatCmpFlagsComputedEquality(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/mtree/x.go", `
package mtree
func tie(a, b float64) bool { return a == b }`)
	wantFindings(t, got, "floating-point ==")
}

func TestFloatCmpAllowsConstantsOrderingAndOtherPackages(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/mtree/x.go", `
package mtree
func sentinel(a float64) bool { return a == 0 }
func order(a, b float64) bool { return a < b }`)
	wantFindings(t, got)
	got = runOn(t, FloatCmp, "scmp/internal/experiment/x.go", `
package experiment
func tie(a, b float64) bool { return a == b }`)
	wantFindings(t, got)
}

func TestNamedFloatTypesAreFlagged(t *testing.T) {
	got := runOn(t, FloatCmp, "scmp/internal/des/x.go", `
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
		got := runOn(t, FloatCmp, "scmp/internal/mtree/x.go", `
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
	got := runOn(t, FloatCmp, "scmp/internal/mtree/x.go", `
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
