// Package flushfence enforces the paper's flush-ordered durability
// observation on ADR-reachable code: a cached PM store that is
// followed, in the same function, by a publish (pool.CAS64 or
// htm.Txn.BumpStore64) must have an intervening Flush, and a Flush
// (or non-temporal store) must be drained by a Fence before the
// publish makes the data reachable.
//
// Two rules:
//
//	R1 (straight-line): scan each function body in source order for
//	STORE / NTSTORE / FLUSH / FENCE / PUBLISH events. A publish while
//	a cached store is unflushed, or while a flush is unfenced, is a
//	violation.
//
//	R2 (policy switch): in a switch dispatching on a policy enum
//	declared in the analyzed package, where at least one case flushes,
//	a case that neither flushes nor is covered by a flush after the
//	switch leaves its path un-flushed. Deliberate cache-absorbed paths
//	(the paper's eADR mode, Table I) carry an //spash:allow flushfence
//	justification. Switches on foreign types (e.g. the htm.Code
//	transaction outcome) are exempt: an aborted path has no
//	durability obligation.
package flushfence

import (
	"go/ast"
	"go/types"

	"spash/internal/analysis/framework"
	"spash/internal/analysis/sym"
)

var Analyzer = &framework.Analyzer{
	Name: "flushfence",
	Doc:  "PM stores must be flushed and fenced before a publish on ADR-reachable paths",
	Run:  run,
}

// ExemptPkgs: the pool and HTM domain implement the ordering protocol
// itself; the baselines reproduce other papers' durability models.
var ExemptPkgs = []string{
	"internal/pmem",
	"internal/htm",
	"internal/baselines/",
	"internal/btree",
}

type eventKind int

const (
	evStore   eventKind = iota // pool.Store64 / pool.Write (cached)
	evNTStore                  // pool.NTStore (bypasses cache, needs fence)
	evFlush                    // pool.Flush
	evFence                    // pool.Fence
	evPublish                  // pool.CAS64, txn.BumpStore64
)

type event struct {
	kind eventKind
	call *ast.CallExpr
	what string
}

func run(pass *framework.Pass) error {
	if sym.PkgMatches(pass.Pkg.Path(), ExemptPkgs) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Body != nil {
					checkFunc(pass, node.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// checkFunc applies R1 and R2 to one function body, then recurses into
// nested literals as independent functions (their bodies run at a
// different time than the enclosing straight-line code).
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	events := collect(pass, body)
	straightLine(pass, events)
	policySwitches(pass, body, events)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkFunc(pass, lit.Body)
			return false
		}
		return true
	})
}

// collect gathers the durability events of one function body in source
// order, not descending into nested function literals.
func collect(pass *framework.Pass, body *ast.BlockStmt) []event {
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m, ok := sym.PoolMethod(pass.Info, call); ok {
			switch m {
			case "Store64", "Write":
				events = append(events, event{evStore, call, "pmem.Pool." + m})
			case "NTStore":
				events = append(events, event{evNTStore, call, "pmem.Pool.NTStore"})
			case "Flush":
				events = append(events, event{evFlush, call, "pmem.Pool.Flush"})
			case "Fence":
				events = append(events, event{evFence, call, "pmem.Pool.Fence"})
			case "CAS64":
				events = append(events, event{evPublish, call, "pmem.Pool.CAS64"})
			}
			return true
		}
		if m, ok := sym.TMMethod(pass.Info, call); ok && m == "BumpStore64" {
			events = append(events, event{evPublish, call, "htm.TM.BumpStore64"})
		}
		return true
	})
	return events
}

// straightLine applies R1: in source order, a publish must not see an
// unflushed cached store or an unfenced flush.
func straightLine(pass *framework.Pass, events []event) {
	var unflushed, unfenced *event
	for i := range events {
		e := &events[i]
		switch e.kind {
		case evStore:
			unflushed = e
		case evNTStore:
			unfenced = e
		case evFlush:
			if unflushed != nil {
				unflushed = nil
				unfenced = e
			}
		case evFence:
			unfenced = nil
		case evPublish:
			if unflushed != nil {
				pass.Reportf(e.call.Pos(),
					"%s publishes while the %s at line %d is unflushed; Flush the store (and Fence) before publishing",
					e.what, unflushed.what, pass.Fset.Position(unflushed.call.Pos()).Line)
				unflushed = nil
			} else if unfenced != nil {
				pass.Reportf(e.call.Pos(),
					"%s publishes while the %s at line %d is not drained by a Fence; Fence before publishing",
					e.what, unfenced.what, pass.Fset.Position(unfenced.call.Pos()).Line)
				unfenced = nil
			}
		}
	}
}

// policySwitches applies R2: a switch in which some case flushes but
// another case neither flushes nor falls through to a post-switch
// flush has an inconsistent durability policy on that case.
func policySwitches(pass *framework.Pass, body *ast.BlockStmt, events []event) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		if !policyTag(pass, sw.Tag) {
			return true
		}
		type caseInfo struct {
			clause  *ast.CaseClause
			flushes bool
			returns bool
		}
		var cases []caseInfo
		anyFlush := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			ci := caseInfo{clause: cc}
			for _, s := range cc.Body {
				ast.Inspect(s, func(m ast.Node) bool {
					if _, ok := m.(*ast.FuncLit); ok {
						return false
					}
					switch mm := m.(type) {
					case *ast.CallExpr:
						if name, ok := sym.PoolMethod(pass.Info, mm); ok && name == "Flush" {
							ci.flushes = true
						}
					case *ast.ReturnStmt:
						ci.returns = true
					}
					return true
				})
			}
			anyFlush = anyFlush || ci.flushes
			cases = append(cases, ci)
		}
		if !anyFlush {
			return true
		}
		// Is there a flush after the switch in the same function body?
		postFlush := false
		for _, e := range events {
			if e.kind == evFlush && e.call.Pos() > sw.End() {
				postFlush = true
				break
			}
		}
		for _, ci := range cases {
			if ci.flushes {
				continue
			}
			if ci.returns || !postFlush {
				label := "default"
				if len(ci.clause.List) > 0 {
					label = exprString(ci.clause.List[0])
				}
				pass.Reportf(ci.clause.Pos(),
					"case %s of this flush-policy switch leaves its PM writes unflushed while sibling cases flush; flush here or justify with //spash:allow flushfence",
					label)
			}
		}
		return true
	})
}

// policyTag reports whether the switch tag's type is a named type
// declared in the analyzed package — a policy enum whose branches
// choose a durability strategy. Tagless switches and switches on
// foreign types (transaction outcomes, error kinds) are not policy
// dispatches.
func policyTag(pass *framework.Pass, tag ast.Expr) bool {
	if tag == nil {
		return false
	}
	t := pass.Info.Types[tag].Type
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Pkg() == pass.Pkg
}

func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	case *ast.BasicLit:
		return t.Value
	default:
		return "?"
	}
}
