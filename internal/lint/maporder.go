package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder forbids `range` over a map, or over a type parameter
// constrained to maps, outside _test.go files and the frozen bench/.
// Go randomises map order per run, and a walk leaks it through whatever
// it does first (a send, an append, the error it returns), so no walk is
// guessed harmless: walk a slice, a node-indexed table or sorted keys.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbids range over a map in production code (outside tests and bench/)",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	if inBench(p.Path) {
		return
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMap(p.TypeOf(rs.X)) {
				p.Reportf(rs.Pos(), "range over map %s: its order differs run to run; walk a slice or sorted keys", types.ExprString(rs.X))
			}
			return true
		})
	}
}

// isMap reports whether t is a map, or a type parameter with a map term:
// a type parameter's underlying type is its constraint interface, and
// range needs a core type, so then every term is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if isMap(u.EmbeddedType(i)) {
				return true
			}
		}
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			if isMap(u.Term(i).Type()) {
				return true
			}
		}
	}
	return false
}

// inBench reports whether path is the frozen benchmark harness.
func inBench(path string) bool {
	return path == "scmp/bench" || strings.HasPrefix(path, "scmp/bench/")
}
