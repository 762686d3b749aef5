package lint

import (
	"slices"
	"strings"
	"testing"
)

func TestNoClockRelaxedInTestFiles(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckSource("scmp/internal/experiment", map[string]string{
		"scmp/internal/experiment/x_test.go": `
package experiment
import "math/rand"
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func draw() int { return rand.Intn(10) }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Check([]*Package{pkg}, []*Analyzer{NoClock}) {
		got = append(got, d.String())
	}
	// rand.New/NewSource are the fixture idiom in tests; the globally
	// seeded rand.Intn stays flagged everywhere.
	wantFindings(t, got, "global rand.Intn")
}

func TestFloatCmpRelaxedInTestFiles(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckSource("scmp/internal/mtree", map[string]string{
		"scmp/internal/mtree/x_test.go": `
package mtree
func bitExact(a, b float64) bool { return a == b }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check([]*Package{pkg}, []*Analyzer{FloatCmp}); len(diags) != 0 {
		t.Fatalf("test-file equality flagged: %v", diags)
	}
}

func TestLoaderIncludeTests(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load("scmp/internal/des")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	des := pkgs[0]
	var testFile, plainFile bool
	for _, f := range des.Files {
		name := des.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			testFile = true
		} else {
			plainFile = true
		}
	}
	if !testFile || !plainFile {
		t.Fatalf("in-package merge incomplete: test=%v plain=%v", testFile, plainFile)
	}
	if !des.Types.Complete() {
		t.Fatal("merged package not type-checked")
	}
}

// TestLoaderExternalTestImportsDependent: netsim's external tests import
// core, which imports netsim. Loading core first reaches netsim while
// core is still loading; the external test package must wait for Load's
// end instead of reporting an import cycle through core.
func TestLoaderExternalTestImportsDependent(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load("scmp/internal/core", "scmp/internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if !slices.Contains(paths, "scmp/internal/netsim [tests]") {
		t.Fatalf("loaded %v, want netsim's external tests among them", paths)
	}
}

// TestModuleIsLintClean is the self-check the CI gate relies on: the
// full analyzer suite over every module package (tests included) must
// report nothing. Inline ignores are applied by Check itself and are
// the only suppression.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Check(pkgs, Analyzers()) {
		t.Errorf("unsuppressed finding: %s", d)
	}
}
