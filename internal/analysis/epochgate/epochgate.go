// Package epochgate checks the split-brain fences of the replication
// apply and promote paths. Three rules:
//
// E1 — epoch gate. An exported function that accepts a replication
// frame (a struct with Epoch, Seq and Shard fields) and reaches a
// mutating call (Insert/Delete/SetAppliedSeq/Store64/...) must compare
// the frame's Epoch field against the durable epoch first. A deposed
// primary keeps shipping frames after a promotion; without the gate
// the replica would install writes from the old regime. Traversal
// stops at callees that contain their own epoch comparison — and, via
// the EpochGated fact, at cross-package callees whose own package's
// run proved them gated.
//
// E2 — durable epoch words. A function whose name speaks of the epoch
// or applied cursor (Epoch, Applied, Cursor, Promote) and that stores
// a root word with pmem.Pool.Store64 must Flush the line and Fence
// before returning. flushfence guards the published-data path; this
// rule extends the same Store64→Flush→Fence discipline to the root
// words replication correctness hangs off (the epoch and the applied
// cursor must never run ahead of their visibility).
//
// E3 — shard bounds. Indexing with a frame's Shard field
// (db.Indexes()[f.Shard]) requires a same-function bounds check on
// that field. Frames arrive from the wire; a hostile or corrupt Shard
// must fence with a typed error, not panic the replica.
package epochgate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spash/internal/analysis/framework"
	"spash/internal/analysis/sym"
)

// EpochGated marks an exported function that compares its frame
// parameter's Epoch against the durable epoch before mutating, so
// cross-package callers may delegate to it without their own gate.
type EpochGated struct{}

func (*EpochGated) AFact() {}

var Analyzer = &framework.Analyzer{
	Name: "epochgate",
	Doc:  "replication apply/promote paths must fence on the frame epoch, persist epoch words with flush+fence, and bound frame shard indexes",
	Run:  run,
}

var scope = []string{"internal/repl", "internal/core", "internal/server", "epochgate"}

// mutatingNames are the callee names E1 treats as pool or index
// mutations when reached from a frame-accepting entry point.
var mutatingNames = map[string]bool{
	"Insert": true, "Update": true, "Delete": true,
	"SetAppliedSeq": true, "BumpEpoch": true, "Promote": true,
	"Store64": true, "StoreLine": true, "CAS64": true, "Write": true, "NTStore": true,
}

func run(pass *framework.Pass) error {
	if !sym.PkgMatches(pass.ImportPath, scope) && !sym.PkgMatches(pass.Pkg.Path(), scope) {
		return nil
	}
	c := &checker{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && fn != nil {
					c.decls[fn] = fd
				}
			}
		}
	}
	for fn, fd := range c.decls {
		c.checkE2(fd)
		c.checkE3(fd)
		if param := c.frameParam(fd); param != nil {
			gated := hasEpochCompare(fd.Body)
			if gated && ast.IsExported(fn.Name()) {
				pass.ExportObjectFact(fn, &EpochGated{})
			}
			if !gated && ast.IsExported(fn.Name()) {
				if pos, callee := c.findUngatedMutation(fd, map[*types.Func]bool{}); pos.IsValid() {
					pass.Reportf(pos,
						"%s mutates through %s without fencing on the frame epoch: compare %s.Epoch against the durable epoch first (a deposed primary's frames must be refused, not applied)",
						fn.Name(), callee, param.Name())
				}
			}
		}
	}
	return nil
}

type checker struct {
	pass  *framework.Pass
	decls map[*types.Func]*ast.FuncDecl
}

// frameShaped reports whether t (after pointer stripping) is a
// replication-frame-shaped struct: fields Epoch, Seq and Shard.
func frameShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	need := map[string]bool{"Epoch": true, "Seq": true, "Shard": true}
	for i := 0; i < s.NumFields(); i++ {
		delete(need, s.Field(i).Name())
	}
	return len(need) == 0
}

// frameParam returns fd's first frame-shaped parameter, if any.
func (c *checker) frameParam(fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := c.pass.Info.Defs[name].(*types.Var)
			if ok && frameShaped(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// hasEpochCompare reports whether body contains a comparison involving
// a .Epoch field selector — the gate shape.
func hasEpochCompare(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			if selectorNamed(be.X, "Epoch") || selectorNamed(be.Y, "Epoch") {
				found = true
			}
		}
		return !found
	})
	return found
}

func selectorNamed(e ast.Expr, name string) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// findUngatedMutation walks fd's body (transitively through
// same-package callees that lack their own epoch compare) for the
// first mutating call, returning its position and display name.
func (c *checker) findUngatedMutation(fd *ast.FuncDecl, visiting map[*types.Func]bool) (token.Pos, string) {
	var pos token.Pos
	var callee string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, fn := c.calleeOf(call)
		if name == "" {
			return true
		}
		if mutatingNames[name] {
			// A cross-package callee that proved itself gated is fine.
			if fn != nil && fn.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(fn, &EpochGated{}) {
				return true
			}
			pos, callee = call.Pos(), name
			return false
		}
		// Recurse into same-package callees; a callee with its own
		// epoch compare is a gate, and a cross-package callee with the
		// EpochGated fact likewise.
		if fn == nil {
			return true
		}
		if fn.Pkg() != c.pass.Pkg {
			return true
		}
		nfd, ok := c.decls[fn]
		if !ok || visiting[fn] {
			return true
		}
		if hasEpochCompare(nfd.Body) {
			return true
		}
		visiting[fn] = true
		if p, cn := c.findUngatedMutation(nfd, visiting); p.IsValid() {
			pos, callee = call.Pos(), fn.Name()+" -> "+cn
			return false
		}
		return true
	})
	return pos, callee
}

func (c *checker) calleeOf(call *ast.CallExpr) (string, *types.Func) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.pass.Info.Uses[f].(*types.Func)
		if fn == nil {
			return "", nil
		}
		return f.Name, fn
	case *ast.SelectorExpr:
		fn, _ := c.pass.Info.Uses[f.Sel].(*types.Func)
		if fn == nil {
			return "", nil
		}
		return f.Sel.Name, fn
	}
	return "", nil
}

// checkE2 enforces Store64→Flush→Fence on epoch/cursor functions: each
// pool.Store64 must be followed (in source order, same function) by a
// pool.Flush and then a pool.Fence.
func (c *checker) checkE2(fd *ast.FuncDecl) {
	name := strings.ToLower(fd.Name.Name)
	if !strings.Contains(name, "epoch") && !strings.Contains(name, "applied") &&
		!strings.Contains(name, "cursor") && !strings.Contains(name, "promote") {
		return
	}
	var stores, flushes, fences []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m, ok := sym.PoolMethod(c.pass.Info, call); ok {
			switch m {
			case "Store64", "NTStore":
				stores = append(stores, call.Pos())
			case "Flush":
				flushes = append(flushes, call.Pos())
			case "Fence":
				fences = append(fences, call.Pos())
			}
		}
		return true
	})
	for _, s := range stores {
		var flushAt token.Pos
		for _, f := range flushes {
			if f > s {
				flushAt = f
				break
			}
		}
		if !flushAt.IsValid() {
			c.pass.Reportf(s,
				"%s stores a durable epoch/cursor word without flushing the line: the word may outrun its data after a crash — follow the store with Flush and Fence", fd.Name.Name)
			continue
		}
		fenced := false
		for _, f := range fences {
			if f > flushAt {
				fenced = true
				break
			}
		}
		if !fenced {
			c.pass.Reportf(s,
				"%s flushes the epoch/cursor word but never fences: the flush may still be in flight at the next dependent store — add Fence after Flush", fd.Name.Name)
		}
	}
}

// checkE3 flags indexing by a frame parameter's Shard field without a
// same-function bounds check on a .Shard selector.
func (c *checker) checkE3(fd *ast.FuncDecl) {
	var sites []*ast.IndexExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(ix.Index).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Shard" {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.Info.Uses[base]
		v, ok := obj.(*types.Var)
		if !ok || !c.isParam(fd, v) {
			return true
		}
		if _, isStruct := deref(v.Type()).Underlying().(*types.Struct); !isStruct {
			return true
		}
		sites = append(sites, ix)
		return true
	})
	if len(sites) == 0 {
		return
	}
	if hasShardBoundsCheck(fd) {
		return
	}
	for _, ix := range sites {
		c.pass.Reportf(ix.Pos(),
			"%s indexes by a frame's Shard field without bounds-checking it: a hostile or corrupt frame panics the replica — validate the shard (typed refusal) before indexing", fd.Name.Name)
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isParam reports whether v is a parameter of fd or of a function
// literal inside it.
func (c *checker) isParam(fd *ast.FuncDecl, v *types.Var) bool {
	found := false
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if c.pass.Info.Defs[name] == v {
					found = true
				}
			}
		}
	}
	collect(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			collect(lit.Type.Params)
		}
		return !found
	})
	return found
}

// hasShardBoundsCheck reports whether fd contains a comparison (or a
// clamp-style call) involving a .Shard selector.
func hasShardBoundsCheck(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.BinaryExpr:
			switch node.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				if selectorNamed(node.X, "Shard") || selectorNamed(node.Y, "Shard") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
