package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared intra-procedural dataflow layer the contract
// analyzers (poollife, detshared) are built on: function inventories,
// static call resolution, and a position-ordered liveness walk that answers
// "is this use of a tracked value sequenced after that invalidating
// call?" without a full CFG.
//
// The sequencing model is deliberately simple: event A is treated as
// preceding event B only when A's statement appears earlier in source
// AND A's enclosing block is an ancestor of B (so an invalidation
// inside one if-branch never poisons uses on the sibling branch).
// That makes the analyzers false-negative-prone around loops and
// gotos — a use *before* a release inside a loop body re-executes
// after it on the next iteration and is not caught — but keeps them
// free of false positives on straight-line code, which is what the
// hot paths are. The limits are documented in DESIGN.md §11.

// funcInfo is one function declaration in a package.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func // nil only when type info is incomplete
}

// packageFuncs inventories every function declaration with a body.
func packageFuncs(p *Pass) []funcInfo {
	var out []funcInfo
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fn.Name].(*types.Func)
			out = append(out, funcInfo{decl: fn, obj: obj})
		}
	}
	return out
}

// staticCallee resolves the *types.Func a call statically dispatches
// to: a plain function, a method on a concrete receiver, or a
// qualified identifier. Interface method calls and calls through
// function values return nil — dynamic dispatch is outside the
// analyzers' reach (a documented false-negative class).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					// Methods found on an interface type dispatch
					// dynamically; only concrete receivers resolve.
					if _, onIface := sel.Recv().Underlying().(*types.Interface); !onIface {
						return fn
					}
				}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // qualified identifier pkg.Fn
		}
	}
	return nil
}

// calleeName returns the bare name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isBuiltinCall reports whether call invokes the named builtin
// (append, panic, make, new, ...).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// objOf resolves an expression to the variable object it denotes, nil
// when e is not a plain (possibly parenthesised) identifier.
func objOf(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	return v
}

// rootObj resolves the base variable of a selector/index/star chain
// (x.f[i].g -> x), nil when the chain does not root in an identifier.
func rootObj(info *types.Info, e ast.Expr) *types.Var {
	root := rootIdent(e)
	if root == nil {
		return nil
	}
	v, _ := info.ObjectOf(root).(*types.Var)
	return v
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// isPackageLevel reports whether v is a package-level variable.
func isPackageLevel(v *types.Var) bool {
	return v != nil && v.Parent() == v.Pkg().Scope()
}

// sequencedAfter reports whether a use at usePos is definitely executed
// after an event at eventPos, both inside fn: the event appears
// earlier in source and every block enclosing the event also encloses
// the use (so the event dominates the use on the shared straight-line
// path). Events buried in deeper branches than the use do not count.
func sequencedAfter(fn ast.Node, eventPos, usePos token.Pos) bool {
	if usePos <= eventPos {
		return false
	}
	eventBlocks := enclosingBlocks(fn, eventPos)
	useBlocks := enclosingBlocks(fn, usePos)
	inUse := make(map[ast.Node]bool, len(useBlocks))
	for _, b := range useBlocks {
		inUse[b] = true
	}
	for _, b := range eventBlocks {
		if !inUse[b] {
			return false
		}
	}
	return true
}

// enclosingBlocks returns every block-like node under fn spanning pos,
// from the outside in. Case and comm clauses count as blocks: a release
// in one switch case must not poison uses in a sibling case.
func enclosingBlocks(fn ast.Node, pos token.Pos) []ast.Node {
	var out []ast.Node
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > pos || n.End() <= pos {
			return false
		}
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			out = append(out, n)
		}
		return true
	})
	return out
}

// capturedVars returns the variables a function literal references that
// are declared outside it (its closure environment). Package-level
// variables are excluded — referencing them does not enlarge the
// closure context.
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if declaredWithin(v, lit) || isPackageLevel(v) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// namedTypeIs reports whether t (after stripping pointers) is the named
// type typeName declared in a package whose import path ends with
// pkgSuffix.
func namedTypeIs(t types.Type, pkgSuffix, typeName string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}
