package lint

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// TestOnly reports production code that no entry point reaches: every
// top-level function or method in a non-test file that no path of
// references leads to from a root, and, once per package, every package
// no main package imports. Code whose only callers are _test.go files is
// exactly what it finds, so the measured line count of non-test Go
// stays honest.
//
// The walk is whole-program: the Facts pass records each package's
// declarations and the objects they reference, and the first Run pass
// walks the graph once for every package.
//
//   - Roots are the main function of every main package (cmd/*,
//     examples/*, bench), and every init function and package-level var
//     initialiser of a package some main imports.
//   - Edges run from a non-test declaration to every object it
//     references. Instances of generic functions and methods map to
//     their origin declaration.
//   - A call through an interface method, and a reached interface type,
//     reach every method of that name: a value converted to the
//     interface may be called through it. A reached type keeps its
//     implicitMethods, since the standard library calls them.
//   - Files built only under -tags invariants count as production: the
//     walk type-checks that build of their package too, so the checkers
//     its hooks call stay reached.
//
// A declaration kept on purpose (read by another package's tests, a
// checker with its corruption fixture) carries
// "//scmplint:ignore testonly — <reason>" and is a root itself, so what
// it calls stays reached. With no main package loaded the analyzer
// reports nothing, since then every function would look unreached.
var TestOnly = &Analyzer{
	Name:  "testonly",
	Doc:   "reports production functions and packages that no main, init or var initialiser reaches (test-only or dead code)",
	Facts: testOnlyFacts,
	Run:   runTestOnly,
}

// implicitMethods are the method names the standard library calls
// through the interfaces this module's types satisfy (fmt.Stringer,
// error, sort.Interface, go/types.Importer); a reached type keeps them.
// A type handed to another library interface adds its names here.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "Import": true,
}

// reachDecl is one top-level declaration: a func, a method, a type, a
// const, or (with an empty key) a package's var initialisers.
type reachDecl struct {
	key  string
	pos  token.Pos
	desc string // "func F", "method (*T).M"; empty for non-functions
	kept bool   // carries a testonly ignore: a root, so what it calls stays
	recv string // receiver type key of a method
	name string // method name
	uses []string
}

// reachPkg is what the Facts pass records about one package.
type reachPkg struct {
	path    string
	name    string
	fset    *token.FileSet
	clause  token.Pos // package clause of the first non-test file
	dir     string
	imports []string // imported by non-test files
	types   *types.Package
	decls   []*reachDecl
}

// reachState is one Check run's graph, shared by every testonly pass.
type reachState struct {
	mu     sync.Mutex
	pkgs   []*reachPkg
	once   sync.Once
	byPath map[string]*reachPkg
	linked map[string]bool // package imported (transitively) by a main
	seen   map[string]bool // reached keys
	mains  bool
}

func testOnlyState(p *Pass) *reachState {
	return p.Shared(func() any { return &reachState{} }).(*reachState)
}

func testOnlyFacts(p *Pass) {
	if strings.HasSuffix(p.Path, " [tests]") {
		return
	}
	rp := &reachPkg{path: p.Path, name: p.Pkg.Name(), fset: p.Fset, types: p.Pkg}
	files := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.InTestFile(f.Pos()) {
			files = append(files, f)
		}
	}
	sort.Slice(files, func(i, j int) bool {
		return p.Fset.Position(files[i].Pos()).Filename < p.Fset.Position(files[j].Pos()).Filename
	})
	if len(files) == 0 {
		return
	}
	rp.clause = files[0].Package
	rp.dir = filepath.Dir(p.Fset.Position(files[0].Pos()).Filename)
	rp.imports = fileImports(files)
	rp.decls = reachDecls(p.Info, files)
	for _, d := range rp.decls {
		d.kept = d.desc != "" && p.ignoredAt(d.pos, p.Fset.Position(d.pos).Line)
	}
	st := testOnlyState(p)
	st.mu.Lock()
	st.pkgs = append(st.pkgs, rp)
	st.mu.Unlock()
}

func fileImports(files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, is := range f.Imports {
			out = append(out, strings.Trim(is.Path.Value, `"`))
		}
	}
	return out
}

// reachDecls lists the declarations of files with the keys each one
// references.
func reachDecls(info *types.Info, files []*ast.File) []*reachDecl {
	var out []*reachDecl
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				rd := &reachDecl{key: reachKey(fn), pos: d.Pos(), uses: reachUses(info, d)}
				if d.Recv == nil && d.Name.Name == "init" {
					rd.key = "" // a root, like a var initialiser
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rd.recv = typeKey(recv.Type())
					rd.name = fn.Name()
					rd.desc = "method " + methodDesc(recv.Type(), fn.Name())
				} else {
					rd.desc = "func " + fn.Name()
				}
				out = append(out, rd)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name]
						if obj == nil {
							continue
						}
						rd := &reachDecl{key: reachKey(obj), pos: s.Pos(), uses: reachUses(info, s)}
						if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
							for i := 0; i < iface.NumExplicitMethods(); i++ {
								rd.uses = append(rd.uses, "iface:"+iface.ExplicitMethod(i).Name())
							}
						}
						out = append(out, rd)
					case *ast.ValueSpec:
						uses := reachUses(info, s)
						if d.Tok == token.VAR {
							out = append(out, &reachDecl{pos: s.Pos(), uses: uses})
							continue
						}
						for _, id := range s.Names {
							if obj := info.Defs[id]; obj != nil {
								out = append(out, &reachDecl{key: reachKey(obj), pos: s.Pos(), uses: uses})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// reachUses returns the keys of the objects n references. A method of an
// interface (or of a type parameter's constraint) becomes "iface:Name".
func reachUses(info *types.Info, n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				out = append(out, "iface:"+fn.Name())
				return true
			}
		}
		if k := reachKey(obj); k != "" {
			out = append(out, k)
		}
		return true
	})
	return out
}

// reachKey names a package-level object or a method by its package path,
// receiver type and name, so the default and -tags invariants builds of
// a package share keys. Other objects (locals, fields, universe) get "".
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return typeKey(recv.Type()) + "." + fn.Name()
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeKey is the key of a (possibly pointer to a, possibly instantiated)
// named type.
func typeKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	obj := named.Origin().Obj()
	return obj.Pkg().Path() + "." + obj.Name()
}

func methodDesc(recv types.Type, name string) string {
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		ptr, recv = "*", p.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return "(" + ptr + named.Origin().Obj().Name() + ")." + name
	}
	return name
}

// walk computes which packages are linked into a main and which keys
// the roots reach. It runs once per Check run, after every Facts pass.
func (st *reachState) walk() {
	st.byPath = make(map[string]*reachPkg, len(st.pkgs))
	for _, rp := range st.pkgs {
		st.byPath[rp.path] = rp
	}
	st.addInvariantsBuilds()

	st.linked = make(map[string]bool)
	var link func(path string)
	link = func(path string) {
		rp := st.byPath[path]
		if rp == nil || st.linked[path] {
			return
		}
		st.linked[path] = true
		for _, imp := range rp.imports {
			link(imp)
		}
	}
	for _, rp := range st.pkgs {
		if rp.name == "main" {
			st.mains = true
			link(rp.path)
		}
	}

	decls := make(map[string][]*reachDecl)
	methodsOfType := make(map[string][]string)
	methodsNamed := make(map[string][]string)
	var work []string
	for _, rp := range st.pkgs {
		if !st.linked[rp.path] {
			continue
		}
		for _, d := range rp.decls {
			if d.key == "" {
				work = append(work, d.uses...)
				continue
			}
			if d.kept || d.desc == "func main" && rp.name == "main" {
				work = append(work, d.key)
			}
			decls[d.key] = append(decls[d.key], d)
			if d.recv != "" {
				methodsNamed[d.name] = append(methodsNamed[d.name], d.key)
				if implicitMethods[d.name] {
					methodsOfType[d.recv] = append(methodsOfType[d.recv], d.key)
				}
			}
		}
	}

	st.seen = make(map[string]bool)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if st.seen[k] {
			continue
		}
		st.seen[k] = true
		if name, ok := strings.CutPrefix(k, "iface:"); ok {
			work = append(work, methodsNamed[name]...)
			continue
		}
		for _, d := range decls[k] {
			work = append(work, d.uses...)
		}
		work = append(work, methodsOfType[k]...)
	}
}

// addInvariantsBuilds type-checks, for every package with files built
// only under -tags invariants, that build of the package, and records
// those files' declarations and imports as production ones.
func (st *reachState) addInvariantsBuilds() {
	imported := make(map[string]*types.Package)
	var collect func(*types.Package)
	collect = func(pkg *types.Package) {
		if imported[pkg.Path()] != nil {
			return
		}
		imported[pkg.Path()] = pkg
		for _, imp := range pkg.Imports() {
			collect(imp)
		}
	}
	for _, rp := range st.pkgs {
		collect(rp.types)
	}
	for _, rp := range st.pkgs {
		files, extra := invariantsBuild(rp)
		if len(extra) == 0 {
			continue
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg := imported[path]; pkg != nil {
				return pkg, nil
			}
			return nil, os.ErrNotExist
		})}
		if _, err := conf.Check(rp.path, rp.fset, files, info); err != nil {
			continue // the invariants build is type-checked by go vet -tags invariants
		}
		rp.decls = append(rp.decls, reachDecls(info, extra)...)
		rp.imports = append(rp.imports, fileImports(extra)...)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// invariantsBuild parses the non-test files of rp's directory that the
// -tags invariants build compiles; extra are those only it compiles.
// Both are nil when no file is built only under that tag.
func invariantsBuild(rp *reachPkg) (files, extra []*ast.File) {
	ctx := build.Default
	def, err := ctx.ImportDir(rp.dir, 0)
	if err != nil {
		return nil, nil
	}
	ctx.BuildTags = []string{"invariants"}
	inv, err := ctx.ImportDir(rp.dir, 0)
	only := func(name string) bool { return !slices.Contains(def.GoFiles, name) }
	if err != nil || !slices.ContainsFunc(inv.GoFiles, only) {
		return nil, nil
	}
	if files, err = parseFiles(rp.fset, rp.dir, inv.GoFiles); err != nil {
		return nil, nil
	}
	for i, name := range inv.GoFiles {
		if only(name) {
			extra = append(extra, files[i])
		}
	}
	return files, extra
}

func runTestOnly(p *Pass) {
	st := testOnlyState(p)
	st.once.Do(st.walk)
	rp := st.byPath[p.Path]
	if !st.mains || rp == nil {
		return
	}
	if !st.linked[rp.path] {
		for _, d := range rp.decls {
			if d.desc != "" {
				p.Reportf(rp.clause, "package %s is imported by no main package; only tests use it", rp.path)
				return
			}
		}
		return
	}
	for _, d := range rp.decls {
		if d.desc != "" && d.key != "" && !st.seen[d.key] && p.fileOf(d.pos) != nil {
			p.Reportf(d.pos, "%s is reached from no main, init or var initialiser; delete it or move it into a _test.go file", d.desc)
		}
	}
}
