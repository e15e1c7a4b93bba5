// Package golifetime checks that every goroutine spawned in the
// serving layers (internal/server, internal/repl, internal/obs) has a
// reachable shutdown edge — some structural evidence that the
// goroutine terminates or is joined when its owner shuts down:
//
//   - a sync.WaitGroup.Done call (typically deferred) — the owner
//     joins the goroutine in Close;
//   - a channel receive or a select with a receive case — the
//     goroutine blocks on (or polls) a signal that close/send can
//     deliver;
//   - a completion send on a channel made with a nonzero buffer in the
//     spawning function — the goroutine runs one bounded errand and
//     exits even if the waiter abandoned it;
//   - a deferred close of a captured channel — a join handle the owner
//     can wait on.
//
// A goroutine with none of these — a loop that polls a boolean under a
// mutex and sleeps, say — cannot be woken or joined: Close returns
// while it still runs, and a test that owns the process sees it leak.
// The check looks for the edge in the spawned function's own body and
// its directly-called same-package functions — no deeper: a channel op
// buried three calls down a work path (a per-frame deadline select,
// say) does work, it does not wait for shutdown, and crediting it
// would hide exactly the polling-loop leaks this check exists to
// catch. A cross-package callee must carry a HasShutdownEdge fact
// exported by the analyzer run over its package, so the check composes
// across internal/server -> internal/repl boundaries without reading
// the callee's source twice.
package golifetime

import (
	"go/ast"
	"go/types"

	"spash/internal/analysis/framework"
	"spash/internal/analysis/sym"
)

// HasShutdownEdge marks a function whose body (transitively, within
// its package) contains a shutdown edge, so cross-package spawns of it
// are accepted.
type HasShutdownEdge struct{}

func (*HasShutdownEdge) AFact() {}

var Analyzer = &framework.Analyzer{
	Name: "golifetime",
	Doc:  "goroutines in the serving layers must have a reachable shutdown edge (join, signal channel, or bounded errand)",
	Run:  run,
}

// scope lists the package-path suffixes the check applies to: the
// layers that own long-lived goroutines and promise clean Close, plus
// the fixture package.
var scope = []string{"internal/server", "internal/repl", "internal/obs", "golifetime"}

func run(pass *framework.Pass) error {
	if !sym.PkgMatches(pass.ImportPath, scope) && !sym.PkgMatches(pass.Pkg.Path(), scope) {
		return nil
	}
	c := &checker{pass: pass, edge: map[*types.Func]int{}, decls: map[*types.Func]*ast.FuncDecl{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && fn != nil {
					c.decls[fn] = fd
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.buffered = bufferedChans(pass.Info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					c.checkGo(g)
				}
				return true
			})
		}
	}
	// Export facts for every package function with a shutdown edge, so
	// importing packages can spawn it directly.
	for fn := range c.decls {
		if c.fnHasEdge(fn, nil) {
			pass.ExportObjectFact(fn, &HasShutdownEdge{})
		}
	}
	return nil
}

type checker struct {
	pass  *framework.Pass
	decls map[*types.Func]*ast.FuncDecl
	// edge memoizes fnHasEdge: 0 unknown, 1 computing/no, 2 yes.
	edge map[*types.Func]int
	// buffered holds the channels of the function currently being
	// walked that were made with a nonzero buffer.
	buffered map[types.Object]bool
}

// bufferedChans finds channels created in fd with make(chan T, n),
// n nonzero: a send on one is a bounded errand, not a blocking leak.
func bufferedChans(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				continue
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			if tv, ok := info.Types[call.Args[0]]; !ok || tv.Type == nil {
				continue
			} else if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
				continue
			}
			// A zero-valued constant buffer is unbuffered; anything else
			// (a nonzero literal or a computed size) counts as buffered.
			if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
				continue
			}
			if lid, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := info.Defs[lid]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[lid]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func (c *checker) checkGo(g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if !c.bodyHasEdge(fun.Body, map[*types.Func]bool{}, 0) {
			c.pass.Reportf(g.Go,
				"goroutine has no reachable shutdown edge (WaitGroup.Done, channel receive/select, bounded completion send, or deferred close): it outlives Close — add one or justify with //spash:allow golifetime")
		}
	default:
		fn := c.calleeFunc(g.Call)
		if fn == nil {
			c.pass.Reportf(g.Go,
				"goroutine spawns an unresolvable function: its shutdown behaviour cannot be checked — spawn a named function or justify with //spash:allow golifetime")
			return
		}
		if fn.Pkg() == c.pass.Pkg {
			if !c.fnHasEdge(fn, map[*types.Func]bool{}) {
				c.pass.Reportf(g.Go,
					"goroutine runs %s, which has no reachable shutdown edge (WaitGroup.Done, channel receive/select, bounded completion send, or deferred close): it outlives Close — add one or justify with //spash:allow golifetime", fn.Name())
			}
			return
		}
		if !c.pass.ImportObjectFact(fn, &HasShutdownEdge{}) {
			c.pass.Reportf(g.Go,
				"goroutine runs %s.%s, which exports no shutdown-edge fact: wrap the spawn so this package owns the lifetime (join handle or signal channel) or justify with //spash:allow golifetime",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.pass.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pass.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// fnHasEdge reports whether fn's own body (or a directly-called
// same-package function's) contains a shutdown edge.
func (c *checker) fnHasEdge(fn *types.Func, visiting map[*types.Func]bool) bool {
	switch c.edge[fn] {
	case 1:
		return false
	case 2:
		return true
	}
	if visiting == nil {
		visiting = map[*types.Func]bool{}
	}
	if visiting[fn] {
		return false
	}
	visiting[fn] = true
	fd, ok := c.decls[fn]
	if !ok {
		return false
	}
	has := c.bodyHasEdge(fd.Body, visiting, 0)
	if has {
		c.edge[fn] = 2
	} else {
		c.edge[fn] = 1
	}
	return has
}

// bodyHasEdge scans one function body for a shutdown edge. depth 0 is
// the spawned body itself; same-package callees are scanned at depth 1
// and the search stops there — an edge deeper down a work path does
// not pace the goroutine's shutdown.
func (c *checker) bodyHasEdge(body *ast.BlockStmt, visiting map[*types.Func]bool, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.UnaryExpr:
			// <-ch: the goroutine blocks on (or drains) a signal.
			if node.Op.String() == "<-" {
				found = true
			}
		case *ast.SelectStmt:
			for _, cl := range node.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					found = true
				}
			}
		case *ast.SendStmt:
			// A completion send is bounded only if the channel cannot
			// block forever: made buffered in the spawning function.
			if id, ok := ast.Unparen(node.Chan).(*ast.Ident); ok {
				if obj := c.pass.Info.Uses[id]; obj != nil && c.buffered[obj] {
					found = true
				}
			}
		case *ast.DeferStmt:
			if c.isClose(node.Call) || c.isWaitGroupDone(node.Call) {
				found = true
			}
		case *ast.CallExpr:
			if c.isWaitGroupDone(node) {
				found = true
				return false
			}
			if depth < 1 {
				if fn := c.calleeFunc(node); fn != nil && fn.Pkg() == c.pass.Pkg {
					if fd, ok := c.decls[fn]; ok && !visiting[fn] {
						visiting[fn] = true
						if c.bodyHasEdge(fd.Body, visiting, depth+1) {
							found = true
						}
					}
				}
			}
		}
		return !found
	})
	return found
}

func (c *checker) isClose(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

func (c *checker) isWaitGroupDone(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	selection, ok := c.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	rt := selection.Recv()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
