// Package lint is the repository's static-analysis framework: a
// self-contained mirror of the golang.org/x/tools/go/analysis API shape
// built only on the standard library (the build environment is offline,
// so x/tools cannot be vendored). It loads and type-checks the module's
// packages, runs a suite of repo-specific analyzers over them, and
// reports diagnostics. cmd/scmplint is the command-line driver.
//
// The six analyzers guard the properties the whole reproduction depends
// on. The determinism suite (maporder, noclock, floatcmp) protects the
// m-router's centrally computed trees from run-to-run divergence; the
// dataflow suite (poollife, detshared) machine-checks the packet pool's
// ownership rule and the parallel runner's sharing rule; testonly keeps
// production code that only tests reach out of the non-test sources.
// Where a runtime gate covers a rule, the rule is not a lint check: the
// AllocsPerRun floors guard the data plane's zero-allocation contract,
// and topology.Graph refuses AddEdge once it has been routed over. See
// the individual analyzer docs and DESIGN.md §11.
//
// The only directive is "//scmplint:ignore <analyzer> — <reason>" on the
// line of a finding or the line above. Check reports every other
// "//scmplint:" comment, and an ignore that names no analyzer of the
// suite or gives no reason, as a finding of its own.
//
// Framework shape: every analyzer has a Run pass that inspects one
// type-checked package and reports diagnostics. An analyzer may also
// have a Facts pass, which runs first over every package in import
// dependency order and exports per-object facts (e.g. "this function
// writes package state"); Run passes — which execute in parallel across
// packages — read those facts back to reason across package boundaries
// without whole-program analysis.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check. Run inspects a fully type-checked package
// through the Pass and reports findings via Pass.Reportf. Facts, when
// non-nil, runs before any Run pass, over all packages in import
// dependency order, and may export per-object facts via Pass.ExportFact
// for Run passes (of the same analyzer) to read back with Pass.FactOf —
// the cross-package channel of the dataflow analyzers.
type Analyzer struct {
	Name  string // short lower-case identifier, used in output and ignore comments
	Doc   string // one-line description
	Run   func(*Pass)
	Facts func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string      // package import path ("scmp/internal/core")
	Files    []*ast.File // files of the analyzed build (test files included in -tests mode)
	Pkg      *types.Package
	Info     *types.Info

	diags   *[]Diagnostic
	mu      *sync.Mutex // guards diags when Run passes execute in parallel
	facts   *factStore
	ignores map[*ast.File]map[int][]string // line -> analyzer names ignored
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an ignore comment
// ("//scmplint:ignore <name> — <reason>" on the same line or the line
// above) suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.ignoredAt(pos, p.Fset.Position(pos).Line) {
		return
	}
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	if p.mu != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	*p.diags = append(*p.diags, d)
}

// TypeOf returns the type of e, nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// InTestFile reports whether pos lies in a _test.go file (only possible
// when the loader ran with IncludeTests). Analyzers use it to relax
// rules that only bind production code — e.g. noclock permits locally
// seeded rand construction in tests.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ExportFact records a fact about obj for this analyzer. Only meaningful
// from a Facts pass; Run passes (any package) read it back with FactOf.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	if p.facts == nil || obj == nil {
		return
	}
	p.facts.put(p.Analyzer.Name, obj, fact)
}

// FactOf returns the fact this analyzer exported for obj, nil when none.
func (p *Pass) FactOf(obj types.Object) any {
	if p.facts == nil || obj == nil {
		return nil
	}
	return p.facts.get(p.Analyzer.Name, obj)
}

// Shared returns this analyzer's one value for the whole Check run,
// made by init on first use. A whole-program analyzer (testonly) builds
// its graph into it from Facts passes and walks it once from Run passes.
func (p *Pass) Shared(init func() any) any {
	s := p.facts
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shared == nil {
		s.shared = make(map[string]any)
	}
	v, ok := s.shared[p.Analyzer.Name]
	if !ok {
		v = init()
		s.shared[p.Analyzer.Name] = v
	}
	return v
}

// factStore holds every analyzer's exported facts and shared values for
// one Check run. Writes happen only during the serial Facts phase; reads
// during the parallel Run phase are lock-free on an immutable map by
// then, but the mutex keeps the store safe under any future phase
// interleaving.
type factStore struct {
	mu     sync.Mutex
	m      map[string]map[types.Object]any
	shared map[string]any
}

func (s *factStore) put(analyzer string, obj types.Object, fact any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]map[types.Object]any)
	}
	byObj := s.m[analyzer]
	if byObj == nil {
		byObj = make(map[types.Object]any)
		s.m[analyzer] = byObj
	}
	byObj[obj] = fact
}

func (s *factStore) get(analyzer string, obj types.Object) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[analyzer][obj]
}

// ignoredAt reports whether an ignore comment covers line (or the line
// above it) for this analyzer.
func (p *Pass) ignoredAt(pos token.Pos, line int) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	if p.ignores == nil {
		p.ignores = make(map[*ast.File]map[int][]string)
	}
	lines, ok := p.ignores[f]
	if !ok {
		lines = parseIgnores(p.Fset, f)
		p.ignores[f] = lines
	}
	return slices.Contains(lines[line], p.Analyzer.Name) || slices.Contains(lines[line-1], p.Analyzer.Name)
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// parseIgnores extracts "scmplint:ignore a b c — reason" directives per
// line.
func parseIgnores(fset *token.FileSet, f *ast.File) map[int][]string {
	out := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if verb, names, _, ok := directive(c.Text); ok && verb == "ignore" {
				line := fset.Position(c.Pos()).Line
				out[line] = append(out[line], names...)
			}
		}
	}
	return out
}

// directive splits the comment "//scmplint:<verb> a b — reason" into
// its verb, the analyzer names and the reason; ok is false for a
// comment that is no scmplint directive. A nested "//" ends the
// directive, and the names end at the first "—" or "--", so a word of
// the reason (say "all") is never read as an analyzer name.
func directive(comment string) (verb string, names []string, reason string, ok bool) {
	text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(comment, "//")), "scmplint:")
	if !ok {
		return "", nil, "", false
	}
	text, _, _ = strings.Cut(text, "//")
	verb, text, _ = strings.Cut(text, " ")
	cut := len(text)
	for _, mark := range []string{"—", "--"} {
		if i := strings.Index(text, mark); i >= 0 && i < cut {
			cut = i
		}
	}
	return verb, strings.Fields(text[:cut]), strings.TrimSpace(strings.TrimLeft(text[cut:], "—-")), true
}

// checkDirectives reports, in every file of pkgs, each scmplint
// directive other than an ignore that names only analyzers of the suite
// and gives its reason. Such a comment is the finding.
func checkDirectives(pkgs []*Package) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if msg := directiveFault(c.Text, known); msg != "" {
						out = append(out, Diagnostic{Analyzer: "scmplint", Pos: pkg.Fset.Position(c.Pos()), Message: msg})
					}
				}
			}
		}
	}
	return out
}

// directiveFault says what is wrong with comment: "" when it is no
// scmplint directive, or an ignore naming only known analyzers, with a
// reason.
func directiveFault(comment string, known map[string]bool) string {
	const form = "write //scmplint:ignore <analyzer> — <reason>"
	verb, names, reason, ok := directive(comment)
	switch {
	case !ok:
		return ""
	case verb != "ignore":
		return fmt.Sprintf("unknown directive scmplint:%s; the only one is scmplint:ignore", verb)
	case len(names) == 0:
		return "ignore names no analyzer; " + form
	case reason == "":
		return "ignore without a reason; " + form
	}
	for _, name := range names {
		if !known[name] {
			return fmt.Sprintf("ignore names %q, which is no analyzer (see scmplint -list)", name)
		}
	}
	return ""
}

// Analyzers returns the full suite in reporting order: the determinism
// analyzers, the dataflow analyzers, then testonly.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, NoClock, FloatCmp, PoolLife, DetShared, TestOnly}
}

// Check runs the given analyzers over every package and returns all
// findings ordered by file position, with the malformed directives
// whichever analyzers run. Facts passes run first, serially, over
// packages in import dependency order; Run passes then fan out in
// parallel across packages (each (package, analyzer) pair is an
// independent read-only walk over shared type information).
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags := checkDirectives(pkgs)
	var mu sync.Mutex
	facts := &factStore{}

	ordered := dependencyOrder(pkgs)
	for _, a := range analyzers {
		if a.Facts == nil {
			continue
		}
		for _, pkg := range ordered {
			a.Facts(newPass(a, pkg, &diags, &mu, facts))
		}
	}

	type unit struct {
		pkg *Package
		a   *Analyzer
	}
	var units []unit
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				units = append(units, unit{pkg, a})
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for _, u := range units {
			u.a.Run(newPass(u.a, u.pkg, &diags, &mu, facts))
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan unit)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range next {
					u.a.Run(newPass(u.a, u.pkg, &diags, &mu, facts))
				}
			}()
		}
		for _, u := range units {
			next <- u
		}
		close(next)
		wg.Wait()
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

func newPass(a *Analyzer, pkg *Package, diags *[]Diagnostic, mu *sync.Mutex, facts *factStore) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Path:     pkg.Path,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    diags,
		mu:       mu,
		facts:    facts,
	}
}

// dependencyOrder returns pkgs sorted so that every package appears
// after all of its imports that are themselves in pkgs — the order the
// Facts phase needs so callee summaries exist before callers read them.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.Path] {
		case 1, 2:
			return // cycle (impossible in valid Go) or already emitted
		}
		state[p.Path] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// walk traverses root keeping an ancestor stack (root first). visit runs
// before descending into n; the stack includes n itself.
func walk(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		visit(n, stack)
		return true
	})
}

// pkgNameOf returns the imported package an identifier refers to, nil
// when id is not a package name.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// selectorPkg returns the import path and selected name when e is a
// qualified identifier like time.Now; ok is false otherwise.
func selectorPkg(info *types.Info, e ast.Expr) (path, name string, sel *ast.SelectorExpr, ok bool) {
	s, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	id, isID := s.X.(*ast.Ident)
	if !isID {
		return "", "", nil, false
	}
	pn := pkgNameOf(info, id)
	if pn == nil {
		return "", "", nil, false
	}
	return pn.Imported().Path(), s.Sel.Name, s, true
}
