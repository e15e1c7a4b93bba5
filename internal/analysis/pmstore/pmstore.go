// Package pmstore enforces the two-phase HTM protocol's write
// discipline: a mutating pmem.Pool call (Store64, StoreLine, CAS64,
// Write, NTStore) outside internal/pmem and internal/htm must be reachable
// only from an htm transaction body, a recovery/format path, or a
// function annotated //spash:guarded with a justification.
//
// The annotation is checked, not trusted blindly: it must carry a
// justification (enforced by the directive checker) and an annotated
// function that performs no PM mutation — directly, through a nested
// literal, or through a callee that does — is reported as stale so
// annotations cannot outlive the code they excuse.
package pmstore

import (
	"go/ast"
	"go/types"
	"regexp"

	"spash/internal/analysis/framework"
	"spash/internal/analysis/sym"
)

var Analyzer = &framework.Analyzer{
	Name: "pmstore",
	Doc:  "mutating pmem.Pool calls must be inside an htm.Txn body, a recovery path, or a //spash:guarded function",
	Run:  run,
}

// ExemptPkgs are package-path suffixes where raw PM mutation is the
// point: the pool and HTM domain themselves, and the baseline indexes,
// which deliberately reproduce other papers' (unguarded) protocols.
var ExemptPkgs = []string{
	"internal/pmem",
	"internal/htm",
	"internal/baselines/", // whole tree
	"internal/btree",
}

// recoveryName matches functions that run before the index goes live:
// single-threaded open/format/recovery/fsck paths where the HTM domain
// is not yet (or deliberately not) in force.
var recoveryName = regexp.MustCompile(`^(Recover|recover|Attach|Open|open|Format|format|Create|Fsck|fsck|Quarantine|quarantine|Rebuild|rebuild|Repair|repair|Salvage|salvage)`)

// fn is one function body (declaration or literal) in the package.
type fn struct {
	decl     *ast.FuncDecl // nil for literals
	parent   *fn           // enclosing function, for literals
	name     string        // display name
	guarded  bool          // annotated, recovery-named, or a txn body
	exported bool          // callable from outside the package
	stores   []*ast.CallExpr
	// storish is true when the function calls something that may
	// mutate PM but cannot be resolved statically (an interface method
	// named like a store). Used only by the stale-annotation check.
	storish bool
	callees map[*fn]bool
	callers map[*fn]bool
	ok      bool
}

type state struct {
	pass    *framework.Pass
	byObj   map[types.Object]*fn
	fns     []*fn
	txnBody map[*ast.FuncLit]bool
	// deferred callee edges: callee object may be declared later in the
	// package than its caller, so edges resolve after enumeration.
	edges []edge
}

type edge struct {
	from *fn
	obj  types.Object
}

func run(pass *framework.Pass) error {
	if sym.PkgMatches(pass.Pkg.Path(), ExemptPkgs) {
		return nil
	}
	st := &state{
		pass:    pass,
		byObj:   map[types.Object]*fn{},
		txnBody: map[*ast.FuncLit]bool{},
	}

	// Mark transaction-body literals (literals passed directly to
	// htm.TM.Run or htm.TM.Irrevocable) before walking bodies.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if m, ok := sym.TMMethod(pass.Info, call); ok && (m == "Run" || m == "Irrevocable") {
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						st.txnBody[lit] = true
					}
				}
			}
			return true
		})
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				f := &fn{
					decl: d, name: framework.FuncDisplayName(d),
					exported: d.Name.IsExported(),
					callees:  map[*fn]bool{}, callers: map[*fn]bool{},
				}
				_, annotated := framework.GuardReason(d.Doc)
				f.guarded = annotated || recoveryName.MatchString(d.Name.Name)
				if obj := pass.Info.Defs[d.Name]; obj != nil {
					st.byObj[obj] = f
				}
				st.fns = append(st.fns, f)
				if d.Body != nil {
					st.walkBody(d.Body, f)
				}
			case *ast.GenDecl:
				// Function literals in package-level var initializers
				// have no runtime caller context; treat each as its own
				// unguarded root.
				st.walkBody(d, nil)
			}
		}
	}

	st.resolveEdges()
	st.fixpoint()
	st.report()
	return nil
}

// walkBody walks the statements of cur's body, recording mutating pool
// calls and callee edges, and descending into nested literals with
// correct parentage.
func (st *state) walkBody(body ast.Node, cur *fn) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			name := "func literal"
			if cur != nil {
				name = "func literal in " + cur.name
			}
			lit := &fn{
				parent: cur, name: name,
				callees: map[*fn]bool{}, callers: map[*fn]bool{},
			}
			if st.txnBody[node] {
				lit.guarded = true
			} else if cur != nil {
				// A plain nested literal runs on behalf of its
				// enclosing function (defer, callback, loop body):
				// model it as called by the parent.
				lit.callers[cur] = true
				cur.callees[lit] = true
			}
			st.fns = append(st.fns, lit)
			st.walkBody(node.Body, lit)
			return false
		case *ast.CallExpr:
			if cur != nil {
				st.recordCall(node, cur)
			}
		}
		return true
	})
}

// recordCall notes a mutating pool call or an intra-package callee
// edge on cur.
func (st *state) recordCall(call *ast.CallExpr, cur *fn) {
	if m, ok := sym.PoolMethod(st.pass.Info, call); ok {
		if sym.MutatingPoolMethods[m] {
			cur.stores = append(cur.stores, call)
		}
		return
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	obj := st.pass.Info.Uses[id]
	if obj == nil {
		return
	}
	fnObj, ok := obj.(*types.Func)
	if !ok {
		return
	}
	if fnObj.Pkg() == st.pass.Pkg {
		st.edges = append(st.edges, edge{from: cur, obj: obj})
	}
	// An unresolvable store-shaped call (an interface method such as
	// the record arena's mem.store) may mutate PM; remember that for
	// the staleness check.
	switch fnObj.Name() {
	case "store", "store64", "Store64", "StoreLine", "CAS64", "Write", "NTStore":
		cur.storish = true
	}
}

func (st *state) resolveEdges() {
	for _, e := range st.edges {
		if callee, ok := st.byObj[e.obj]; ok {
			e.from.callees[callee] = true
			callee.callers[e.from] = true
		}
	}
}

// fixpoint: a function is OK when it is guarded, or when it has at
// least one intra-package caller and every caller is OK. Exported
// declarations cannot be promoted through callers — external callers
// are invisible, so they must carry their own guard.
func (st *state) fixpoint() {
	for _, f := range st.fns {
		f.ok = f.guarded
	}
	for changed := true; changed; {
		changed = false
		for _, f := range st.fns {
			if f.ok || (f.exported && f.decl != nil) {
				continue
			}
			if len(f.callers) == 0 {
				continue
			}
			all := true
			for c := range f.callers {
				if !c.ok {
					all = false
					break
				}
			}
			if all {
				f.ok = true
				changed = true
			}
		}
	}
}

func (st *state) report() {
	for _, f := range st.fns {
		if !f.ok {
			for _, call := range f.stores {
				m, _ := sym.PoolMethod(st.pass.Info, call)
				st.pass.Reportf(call.Pos(),
					"raw pmem.Pool.%s in %s is reachable outside an htm.Txn body; run it under htm.TM.Run, move it to a recovery path, or annotate the function //spash:guarded with a justification",
					m, f.name)
			}
		}
		if f.decl == nil {
			continue
		}
		if _, annotated := framework.GuardReason(f.decl.Doc); !annotated {
			continue
		}
		if !reachesStore(f, map[*fn]bool{}) {
			st.pass.Reportf(f.decl.Pos(),
				"stale //spash:guarded on %s: the function performs no pmem.Pool mutation directly or through its callees; remove the annotation",
				f.name)
		}
	}
}

// reachesStore reports whether f reaches a pmem mutation (or a
// store-shaped interface call) through itself or its intra-package
// callees.
func reachesStore(f *fn, seen map[*fn]bool) bool {
	if seen[f] {
		return false
	}
	seen[f] = true
	if len(f.stores) > 0 || f.storish {
		return true
	}
	for c := range f.callees {
		if reachesStore(c, seen) {
			return true
		}
	}
	return false
}
