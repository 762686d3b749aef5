package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// PoolLife keeps pooled packets from outliving their frame: the
// simulator recycles an in-flight *netsim.Packet once its handler
// returns, so a retained reference later reads another packet. Two
// exact rules, outside _test.go files and bench/:
//
//   - a *netsim.Packet expression is only the operand of a selector, a
//     dereference or a comparison, an argument to a (non-variadic)
//     *netsim.Packet parameter, the value assigned to a local
//     *netsim.Packet, or a return value of that type: no store,
//     composite literal, append, send, closure capture or conversion
//     to an interface;
//   - nothing but a return of constants runs after a putPacket call on
//     the way out of its function: no later statement, no enclosing
//     loop (a switch clause does not fall into the next).
//
// putPacket's own body is the pool and is exempt (DESIGN.md §11).
var PoolLife = &Analyzer{
	Name: "poollife",
	Doc:  "a *netsim.Packet is only read, passed as *Packet, held in a local or returned; putPacket ends its function",
	Run:  runPoolLife,
}

func runPoolLife(p *Pass) {
	if inBench(p.Path) {
		return
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "putPacket" {
				return false // the pool itself
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "putPacket" {
					if what := afterPut(p, stack); what != "" {
						p.Reportf(call.Pos(), "%s runs after putPacket released the packet; follow putPacket with return", what)
					}
				}
			}
			if e, ok := n.(ast.Expr); ok && p.Info.Types[e].IsValue() && isPooledPacketType(p.TypeOf(e)) {
				if what := packetEscape(p, stack); what != "" {
					p.Reportf(e.Pos(), "pooled packet %s %s; it is recycled after the handler returns", types.ExprString(e), what)
				}
			}
			return true
		})
	}
}

// packetEscape says how the *Packet expression on top of stack leaves
// the rule's shapes, "" when it keeps to them.
func packetEscape(p *Pass, stack []ast.Node) string {
	e, parent := stack[len(stack)-1].(ast.Expr), stack[len(stack)-2]
	var fn ast.Node // the innermost function around e, and its signature
	var sig *types.Signature
	for i := len(stack) - 1; fn == nil && i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			fn, sig = f, p.TypeOf(f).(*types.Signature)
		case *ast.FuncDecl:
			fn, sig = f, p.Info.Defs[f.Name].Type().(*types.Signature)
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := p.Info.Uses[id].(*types.Var); ok && !v.IsField() && !isPackageLevel(v) && !within(v.Pos(), fn) {
			return "captured by a closure"
		}
	}
	switch x := parent.(type) {
	case *ast.ParenExpr, *ast.StarExpr, *ast.SelectorExpr:
		return "" // a selector's operand, or x.pkt, which is checked itself
	case *ast.BinaryExpr:
		if x.Op == token.EQL || x.Op == token.NEQ {
			return ""
		}
	case *ast.CallExpr:
		callee, ok := p.TypeOf(x.Fun).Underlying().(*types.Signature) // not for a conversion
		if i := slices.Index(x.Args, e); !ok {
			return "converted to " + p.TypeOf(x.Fun).String()
		} else if callee.Variadic() && i >= callee.Params().Len()-1 {
			return "passed to a variadic parameter of " + types.ExprString(x.Fun) // append too
		} else if t := callee.Params().At(i).Type(); !isPooledPacketType(t) {
			return "passed as " + t.String()
		}
		return ""
	case *ast.AssignStmt:
		if i := slices.Index(x.Rhs, e); i >= 0 && len(x.Lhs) == len(x.Rhs) {
			id, _ := ast.Unparen(x.Lhs[i]).(*ast.Ident)
			if v, ok := p.Info.ObjectOf(id).(*types.Var); !ok || isPackageLevel(v) || !isPooledPacketType(v.Type()) {
				return "stored in " + types.ExprString(x.Lhs[i])
			}
		}
		return "" // a target; the value stored is checked itself
	case *ast.ValueSpec:
		if i := slices.Index(x.Values, e); i >= 0 {
			if v, ok := p.Info.Defs[x.Names[i]].(*types.Var); !ok || isPackageLevel(v) || !isPooledPacketType(v.Type()) {
				return "stored in " + x.Names[i].Name
			}
		}
		return ""
	case *ast.ReturnStmt:
		results := sig.Results()
		if i := slices.Index(x.Results, e); len(x.Results) == results.Len() && !isPooledPacketType(results.At(i).Type()) {
			return "returned as " + results.At(i).Type().String()
		}
		return ""
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return "stored in a composite literal"
	case *ast.SendStmt:
		return "sent on a channel"
	}
	return fmt.Sprintf("used in %T", parent)
}

// afterPut names what runs after the putPacket call on top of stack on
// the way out of its function, "" when nothing does but a return of
// constants.
func afterPut(p *Pass, stack []ast.Node) string {
	i := len(stack) - 1
	for _, ok := stack[i].(ast.Stmt); !ok; _, ok = stack[i].(ast.Stmt) {
		i--
	}
	for ; ; i-- {
		var list []ast.Stmt
		switch x := stack[i-1].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return ""
		case *ast.ForStmt, *ast.RangeStmt:
			return "the enclosing loop"
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			switch stack[i].(type) {
			case *ast.BlockStmt, *ast.IfStmt: // a body, or an else branch
				continue
			}
			return "the statement it initialises"
		case *ast.BlockStmt:
			switch stack[i].(type) {
			case *ast.CaseClause, *ast.CommClause: // a clause does not fall into the next
				continue
			}
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		case *ast.CommClause:
			list = x.Body
		} // a labeled statement passes through: its list is empty
		k := slices.Index(list, stack[i].(ast.Stmt))
		if k == len(list)-1 {
			continue
		}
		if ret, ok := list[k+1].(*ast.ReturnStmt); !ok || slices.ContainsFunc(ret.Results, func(r ast.Expr) bool { return p.Info.Types[r].Value == nil }) {
			return "a later statement"
		}
		return ""
	}
}

// isPooledPacketType matches *Packet of a package whose path ends in
// "netsim" (so analyzer tests can declare a netsim-shaped package).
func isPooledPacketType(t types.Type) bool {
	_, ptr := t.(*types.Pointer)
	return ptr && strings.HasSuffix(t.String(), "netsim.Packet")
}
