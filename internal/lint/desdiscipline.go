package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DESDiscipline enforces the discrete-event simulator's mutation
// discipline: protocol event handlers (the netsim.Protocol methods
// HandlePacket, HostJoin, HostLeave, SendData) must not mutate the
// topology graph synchronously. A handler runs in the middle of event
// dispatch; rewiring the graph there changes link lookups for packets
// already in flight in an order-dependent way. Topology changes must be
// scheduled as their own events — a des timer, or a closure handed to
// the deprecated Scheduler.At shim, which is therefore exempt: the
// scheduler serialises them against every other event deterministically.
var DESDiscipline = &Analyzer{
	Name: "desdiscipline",
	Doc:  "forbids synchronous topology mutation inside DES event handlers",
	Run:  runDESDiscipline,
}

// handlerNames are the netsim.Protocol entry points (and the Network
// methods shadowing them) that run inside event dispatch.
var handlerNames = map[string]bool{
	"HandlePacket": true, "HostJoin": true, "HostLeave": true, "SendData": true,
}

// graphMutators are the topology.Graph methods that rewire the graph.
var graphMutators = map[string]bool{
	"AddEdge": true, "MustAddEdge": true,
}

func runDESDiscipline(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !handlerNames[fn.Name.Name] || fn.Body == nil {
				continue
			}
			checkHandlerBody(p, fn)
		}
	}
}

func checkHandlerBody(p *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSchedulerCall(p, call) {
			// Closures handed to Scheduler.At run as their own events
			// later, on a timer.
			for _, arg := range call.Args {
				if _, isLit := arg.(*ast.FuncLit); isLit {
					return false
				}
			}
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !graphMutators[sel.Sel.Name] {
			return true
		}
		if recvIsType(p, sel, "scmp/internal/topology", "Graph") {
			p.Reportf(call.Pos(),
				"event handler %s mutates the topology synchronously via %s; schedule the mutation as its own event (a des timer)",
				fn.Name.Name, sel.Sel.Name)
		}
		return true
	})
}

// isSchedulerCall reports whether call is des.Scheduler.At.
func isSchedulerCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "At" {
		return false
	}
	return recvIsType(p, sel, "scmp/internal/des", "Scheduler")
}

// recvIsType reports whether sel is a method selection whose receiver's
// (possibly pointed-to) named type is pkgPath.typeName.
func recvIsType(p *Pass, sel *ast.SelectorExpr, pkgPath, typeName string) bool {
	selection, ok := p.Info.Selections[sel]
	var recv types.Type
	if ok {
		recv = selection.Recv()
	} else if t := p.TypeOf(sel.X); t != nil {
		recv = t
	} else {
		return false
	}
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgPath)
}
