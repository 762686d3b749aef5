package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// TestLoaderFileChoice checks that the loader compiles exactly the files
// go build would: an ignored file, a _GOOS file pair and a tag-gated
// hook pair in one package of a throwaway module.
func TestLoaderFileChoice(t *testing.T) {
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "pkg")
	if err := os.Mkdir(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := map[string]string{
		"go.mod":               "module fixture\n\ngo 1.21\n",
		"pkg/pkg.go":           "package pkg\n",
		"pkg/gen.go":           "//go:build ignore\n\npackage main\n",
		"pkg/os_linux.go":      "package pkg\n\nconst onLinux = true\n",
		"pkg/os_windows.go":    "package pkg\n\nconst onWindows = true\n",
		"pkg/hooks_on.go":      "//go:build invariants\n\npackage pkg\n\nconst hooks = true\n",
		"pkg/hooks_off.go":     "//go:build !invariants\n\npackage pkg\n\nconst hooks = false\n",
		"pkg/pkg_test.go":      "package pkg\n",
		"pkg/ext_test.go":      "package pkg_test\n",
		"pkg/hooks_on_test.go": "//go:build invariants\n\npackage pkg\n",
	}
	for name, body := range src {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var osFile []string // the _GOOS file go build picks here, if any
	if runtime.GOOS == "linux" || runtime.GOOS == "windows" {
		osFile = []string{"os_" + runtime.GOOS + ".go"}
	}
	base := func(fs *token.FileSet, files []*ast.File) []string {
		var out []string
		for _, f := range files {
			out = append(out, filepath.Base(fs.Position(f.Pos()).Filename))
		}
		slices.Sort(out)
		return out
	}
	want := func(names ...string) []string {
		names = append(names, osFile...)
		slices.Sort(names)
		return names
	}

	loader, err := NewLoader(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "fixture/pkg" || pkgs[1].Path != "fixture/pkg [tests]" {
		t.Fatalf("loaded %d packages, want fixture/pkg and its external tests", len(pkgs))
	}
	if got, w := base(pkgs[0].Fset, pkgs[0].Files), want("hooks_off.go", "pkg.go", "pkg_test.go"); !slices.Equal(got, w) {
		t.Errorf("default build files = %v, want %v", got, w)
	}
	if got, w := base(pkgs[1].Fset, pkgs[1].Files), []string{"ext_test.go"}; !slices.Equal(got, w) {
		t.Errorf("external test files = %v, want %v", got, w)
	}
}
