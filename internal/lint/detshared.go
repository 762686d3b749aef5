package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DetShared keeps the parallel runner's output independent of goroutine
// scheduling: runner.Map merges results in index order, so a worker that
// communicates only through its return value yields the same bytes at
// every width, and a write to shared state (mutex or not) does not. Two
// exact rules:
//
//   - outside _test.go files, no assignment, op-assignment, ++/-- or
//     range = has a package-level variable at the root of its target
//     (x, x.f, x[i], *x), so no call a worker makes, static or dynamic,
//     writes it;
//   - in a function literal passed as runner.Map's worker, tests
//     included, no write's root variable is declared outside it.
//
// A method call on captured state is not a write here (DESIGN.md §11).
var DetShared = &Analyzer{
	Name: "detshared",
	Doc:  "forbids writes to package-level variables outside tests, and writes to captured variables in runner.Map workers",
	Run:  runDetShared,
}

func runDetShared(p *Pass) {
	for _, f := range p.Files {
		var workers []*ast.FuncLit // Inspect is pre-order: a worker is listed before its body is walked
		ast.Inspect(f, func(n ast.Node) bool {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.CallExpr:
				if k := len(n.Args); k > 0 && isRunnerMap(p, n.Fun) {
					if lit, ok := n.Args[k-1].(*ast.FuncLit); ok {
						workers = append(workers, lit)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					targets = n.Lhs
				}
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					targets = []ast.Expr{n.Key, n.Value}
				}
			}
			for _, target := range targets {
				switch v := rootObj(p.Info, target); {
				case v == nil: // _, or a target rooted in a call's result
				case slices.ContainsFunc(workers, func(w *ast.FuncLit) bool { return within(n.Pos(), w) && !within(v.Pos(), w) }):
					p.Reportf(n.Pos(), "worker writes %s, declared outside it; workers must communicate through their return value", v.Name())
				case isPackageLevel(v) && !p.InTestFile(n.Pos()):
					p.Reportf(n.Pos(), "writes package-level %s; package state is written only by its declaration", v.Name())
				}
			}
			return true
		})
	}
}

// isRunnerMap matches the function runner.Map (by package path suffix,
// so analyzer tests can declare their own runner-shaped package).
func isRunnerMap(p *Pass, fun ast.Expr) bool {
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X // runner.Map[T]
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Map" {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "runner") && fn.Type().(*types.Signature).Recv() == nil
}

// rootObj resolves the base variable of a selector/index/star chain
// (x.f[i].g -> x, pkg.V.f -> pkg.V), nil when the chain does not root
// in a variable.
func rootObj(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
				return v
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// within reports whether pos lies inside node.
func within(pos token.Pos, node ast.Node) bool { return node.Pos() <= pos && pos < node.End() }

// isPackageLevel reports whether v is a package-level variable.
func isPackageLevel(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
