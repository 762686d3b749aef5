package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // parsed non-test files of the default build
	Types *types.Package
	Info  *types.Info
}

// Every Loader shares one FileSet and one standard-library source
// importer, so the standard library is type-checked once per process.
// The source importer is not safe for concurrent use: stdMu guards it.
var (
	fset  = token.NewFileSet()
	std   = importer.ForCompiler(fset, "source", nil)
	stdMu sync.Mutex
)

// Loader loads and type-checks packages of the enclosing module without
// golang.org/x/tools: module packages are parsed from source and
// standard-library imports are resolved through go/importer's source
// importer, so no compiled export data or network access is needed.
//
// With IncludeTests set (before the first Load), _test.go files join the
// analysis: in-package test files are merged into their package's build
// (as in a `go test` compile, which also guarantees the merge cannot
// introduce import cycles), and external test packages (package foo_test)
// are loaded as separate packages whose import path carries a " [tests]"
// suffix.
type Loader struct {
	moduleDir  string
	modulePath string
	pkgs       map[string]*Package
	exts       map[string]*Package    // external test package by base import path
	extFiles   map[string][]*ast.File // its parsed files, which Load checks
	loading    map[string]bool

	// IncludeTests adds _test.go files to subsequent Loads.
	IncludeTests bool
}

// NewLoader builds a loader for the module containing dir (dir or any
// parent must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePathOf(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		moduleDir:  root,
		modulePath: modPath,
		pkgs:       make(map[string]*Package),
		exts:       make(map[string]*Package),
		extFiles:   make(map[string][]*ast.File),
		loading:    make(map[string]bool),
	}, nil
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	m := moduleLineRE.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("lint: no module line in %s", gomod)
	}
	return string(m[1]), nil
}

// ModuleDir returns the module's root directory (where go.mod lives).
func (l *Loader) ModuleDir() string { return l.moduleDir }

// Load resolves patterns ("./...", "./internal/core", or full import
// paths) into loaded packages, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "..." || strings.HasSuffix(pat, "/..."):
			base := strings.TrimPrefix(strings.TrimSuffix(pat, "..."), "./")
			dirs, err := l.walkDirs(filepath.Join(l.moduleDir, filepath.FromSlash(base)))
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				paths[l.importPathFor(d)] = true
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			paths[l.importPathFor(filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimPrefix(pat, "./"))))] = true
		default:
			paths[pat] = true
		}
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	out := make([]*Package, 0, len(sorted))
	for _, p := range sorted {
		pkg, err := l.loadPath(p)
		if err != nil {
			return nil, err
		}
		if pkg != nil { // directories without buildable Go files are skipped
			out = append(out, pkg)
		}
	}
	// External test packages of the requested paths ride along after the
	// base packages, in the same sorted order. They are checked only
	// now, when no package is mid-load: an external test may import a
	// package that imports its base (netsim's imports core, which
	// imports netsim), and a check inside the base's load would find
	// that package still loading.
	for _, p := range sorted {
		if files := l.extFiles[p]; len(files) > 0 && l.exts[p] == nil {
			ext, err := l.check(p+" [tests]", files)
			if err != nil {
				return nil, err
			}
			ext.Dir = l.dirFor(p)
			l.exts[p] = ext
		}
		if ext := l.exts[p]; ext != nil {
			out = append(out, ext)
		}
	}
	return out, nil
}

// walkDirs lists every directory under root, skipping hidden, "_" and
// testdata directories as the go command does; loadPath skips those
// without buildable Go files.
func (l *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseFiles parses the named files of dir.
func parseFiles(fs *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fs, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) dirFor(path string) string {
	if path == l.modulePath {
		return l.moduleDir
	}
	return filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
}

// Import implements types.Importer: module packages load from source,
// everything else goes to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no buildable Go files in %s", path)
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return std.Import(path)
}

// loadPath loads and type-checks one module package (cached). It returns
// (nil, nil) for directories with no buildable files.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// go/build picks the files as go build does: by file-name suffix
	// (_test, _GOOS, _GOARCH) and //go:build line.
	dir := l.dirFor(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if _, noGo := err.(*build.NoGoError); noGo {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if l.IncludeTests {
		// In-package test files merge into the package, as in a test build.
		names = slices.Concat(names, bp.TestGoFiles)
	}
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkg, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	if l.IncludeTests && len(bp.XTestGoFiles) > 0 {
		if l.extFiles[path], err = parseFiles(fset, dir, bp.XTestGoFiles); err != nil {
			return nil, err
		}
	}
	return pkg, nil
}

func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: l.dirFor(path), Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
