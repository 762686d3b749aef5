package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolLife machine-checks the pooled-packet lifetime through an
// intra-procedural escape/liveness walk. Tracked are the results of
// Network.getPacket calls, *Packet parameters (including sink/trace
// callback literals), and *Packet locals type-asserted out of a
// SinkEvent payload. The simulator recycles the in-flight copy once the
// handler returns, so a tracked packet must not outlive its frame:
// storing it into a field, slice element, map, package-level variable
// or composite literal, sending it on a channel, appending it anywhere,
// or capturing it in a closure is reported, as is any use sequenced
// after the putPacket call that releases it. Field reads/writes on the packet and passing it down the
// call stack are fine — the contract is about retention, not access.
// (The scheduler's handles need no such check: a des.Timer is a value
// whose Stop and Armed validate the slot generation themselves.)
//
// Sequencing uses the ancestor-block rule (see dataflow.go): an event
// only poisons uses it dominates in source order, so a release on an
// early-return branch never flags the fall-through path. Loops,
// gotos, derived pointers (q := pkt.Payload) and cross-call flows are
// documented false negatives (DESIGN.md §11).
var PoolLife = &Analyzer{
	Name: "poollife",
	Doc:  "tracks pool-obtained packets; flags retention past release and use after putPacket",
	Run:  runPoolLife,
}

func runPoolLife(p *Pass) {
	for _, fi := range packageFuncs(p) {
		name := fi.decl.Name.Name
		if name == "getPacket" || name == "putPacket" {
			continue // the pool implementation itself stores packets by design
		}
		checkPoolLifeFunc(p, fi.decl)
	}
}

func checkPoolLifeFunc(p *Pass, fn *ast.FuncDecl) {
	tracked := collectTracked(p, fn)
	if len(tracked) == 0 {
		return
	}

	// Release (putPacket) and reassignment positions per alias group,
	// keyed by the group's representative (the original source var).
	releases := make(map[*types.Var][]token.Pos)
	assigns := make(map[*types.Var][]token.Pos)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// A release is recorded just inside the call's closing paren:
			// ordered after every argument, but still inside the call's
			// enclosing case clause / block for ancestry purposes.
			if calleeName(n) == "putPacket" {
				for _, arg := range n.Args {
					if rep := tracked[objOf(p.Info, arg)]; rep != nil {
						releases[rep] = append(releases[rep], n.End()-1)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rep := tracked[objOf(p.Info, lhs)]; rep != nil {
					assigns[rep] = append(assigns[rep], n.End())
				}
			}
		}
		return true
	})

	checkPoolEscapes(p, fn, tracked)

	// Liveness: a use is poisoned by the nearest dominating release
	// unless a reassignment lies between.
	walk(fn.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		v, _ := p.Info.Uses[id].(*types.Var)
		rep := tracked[v]
		if rep == nil || isAssignTarget(stack, id) {
			return
		}
		if lit := innermostFuncLit(stack); lit != nil && !declaredWithin(v, lit) {
			return // captures are reported once, by the escape walk
		}
		for _, rel := range releases[rep] {
			if sequencedAfter(fn.Body, rel, id.Pos()) && !anyBetween(assigns[rep], rel, id.Pos()) {
				p.Reportf(id.Pos(), "use of pooled packet %s after putPacket released it", id.Name)
				return
			}
		}
	})
}

// collectTracked gathers the function's tracked variables: pooled-packet
// sources and their plain-identifier aliases (q := pkt), each mapped to
// its group's representative.
func collectTracked(p *Pass, fn *ast.FuncDecl) map[*types.Var]*types.Var {
	tracked := make(map[*types.Var]*types.Var)

	// *Packet parameters of the function itself and of every function
	// literal in its body (sink, trace and scheduler callbacks receive
	// pooled copies valid only for the call).
	trackParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				v, _ := p.Info.Defs[name].(*types.Var)
				if v != nil && isPooledPacketType(v.Type()) {
					tracked[v] = v
				}
			}
		}
	}
	trackParams(fn.Type)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			trackParams(lit.Type)
		}
		return true
	})

	// Locals: pool-call results and payload assertions.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			v := objOf(p.Info, as.Lhs[i])
			if v == nil {
				continue
			}
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				if calleeName(r) == "getPacket" {
					tracked[v] = v
				}
			case *ast.TypeAssertExpr:
				if isPooledPacketType(p.TypeOf(r)) {
					tracked[v] = v
				}
			}
		}
		return true
	})

	// Alias closure: a plain `q := pkt` joins pkt's group.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				src := objOf(p.Info, rhs)
				dst := objOf(p.Info, as.Lhs[i])
				if src == nil || dst == nil || dst == src {
					continue
				}
				rep := tracked[src]
				if rep == nil {
					continue
				}
				if tracked[dst] == nil {
					tracked[dst] = rep
					changed = true
				}
			}
			return true
		})
	}
	return tracked
}

// checkPoolEscapes reports stores that would retain a pooled packet past
// its release: fields, slice/map elements, globals, composite literals,
// appends, channel sends, and closure captures.
func checkPoolEscapes(p *Pass, fn *ast.FuncDecl, tracked map[*types.Var]*types.Var) {
	isTrackedPacket := func(e ast.Expr) (*types.Var, bool) {
		v := objOf(p.Info, e)
		return v, tracked[v] != nil
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				v, ok := isTrackedPacket(rhs)
				if !ok {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					if lv := objOf(p.Info, lhs); isPackageLevel(lv) {
						p.Reportf(n.Pos(), "pooled packet %s stored in package-level %s; it is recycled after the handler returns", v.Name(), lhs.Name)
					}
					// plain local: alias, handled by group tracking
				case *ast.SelectorExpr:
					p.Reportf(n.Pos(), "pooled packet %s stored in field %s; it is recycled after the handler returns", v.Name(), exprString(lhs))
				case *ast.IndexExpr:
					p.Reportf(n.Pos(), "pooled packet %s stored in element %s; it is recycled after the handler returns", v.Name(), exprString(lhs))
				case *ast.StarExpr:
					p.Reportf(n.Pos(), "pooled packet %s stored through pointer %s; it is recycled after the handler returns", v.Name(), exprString(lhs))
				}
			}
		case *ast.CallExpr:
			if isBuiltinCall(p.Info, n, "append") {
				for _, arg := range n.Args[1:] {
					if v, ok := isTrackedPacket(arg); ok {
						p.Reportf(arg.Pos(), "pooled packet %s appended to a slice; it is recycled after the handler returns", v.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if v, ok := isTrackedPacket(e); ok {
					p.Reportf(e.Pos(), "pooled packet %s stored in a composite literal; it is recycled after the handler returns", v.Name())
				}
			}
		case *ast.SendStmt:
			if v, ok := isTrackedPacket(n.Value); ok {
				p.Reportf(n.Pos(), "pooled packet %s sent on a channel; it is recycled after the handler returns", v.Name())
			}
		case *ast.FuncLit:
			for _, v := range capturedVars(p.Info, n) {
				if tracked[v] != nil {
					p.Reportf(n.Pos(), "pooled packet %s captured by closure; it is recycled after the handler returns", v.Name())
				}
			}
		}
		return true
	})
}

// isAssignTarget reports whether id is being written (LHS of an
// assignment) rather than read.
func isAssignTarget(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) < 2 {
		return false
	}
	as, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == ast.Expr(id) {
			return true
		}
	}
	return false
}

// innermostFuncLit returns the deepest function literal on the stack,
// nil when the node is not inside one.
func innermostFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// anyBetween reports whether any position in ps lies strictly between
// lo and hi.
func anyBetween(ps []token.Pos, lo, hi token.Pos) bool {
	for _, p := range ps {
		if p > lo && p < hi {
			return true
		}
	}
	return false
}

// isPooledPacketType matches *Packet where Packet is netsim's pooled
// packet type (suffix match so analyzer tests can declare their own
// netsim-shaped package).
func isPooledPacketType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return namedTypeIs(t, "netsim", "Packet")
}
