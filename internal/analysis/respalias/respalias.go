// Package respalias enforces the zero-copy RESP aliasing contract:
// a []byte (or Reply) handed out by a resp.Reader aliases the reader's
// internal buffer and is valid only until Release. Such a value must
// not escape the request scope — into a struct field, a channel send,
// or a goroutine capture — without an explicit copy
// (append([]byte(nil), b...) or a string conversion) or a
// //spash:aliased justification.
//
// The analyzer is cross-package, which is the point: the arena lives
// in internal/resp, the escapes happen in internal/server. Packages
// that derive aliasing values export facts —
//
//   - AliasArena on a named type with a Release method and a []byte
//     buffer field (resp.Reader);
//   - ReturnsAlias on every function whose results (transitively)
//     alias an arena's buffer (Reader.ReadCommand, Client.Next, ...);
//   - AliasCarrier on struct types whose byte-carrying fields alias
//     the buffer (resp.Reply);
//
// and consumer packages taint values obtained through those facts. The
// taint is flow-insensitive and monotone: assignments, slicing,
// indexing, composite literals, range, and intra-package calls
// propagate it; append onto an untainted base and conversions to
// string (both copy) break it. A tainted value stored into a field
// reachable from a receiver, parameter, or package-level variable —
// or sent on a channel, or captured by a go statement — is an escape.
// Stores into the arena's own fields are the arena managing its
// buffers and stay exempt.
package respalias

import (
	"go/ast"
	"go/types"

	"spash/internal/analysis/framework"
)

// ReturnsAlias marks a function at least one of whose results aliases
// a resp arena buffer.
type ReturnsAlias struct{}

func (*ReturnsAlias) AFact() {}

// AliasCarrier marks a named struct type whose byte-carrying fields
// alias an arena buffer (reading such a field yields an alias).
type AliasCarrier struct{}

func (*AliasCarrier) AFact() {}

// AliasArena marks a named type that owns a reusable read buffer with
// a Release lifecycle; its byte-slice fields are the aliased arena.
type AliasArena struct{}

func (*AliasArena) AFact() {}

var Analyzer = &framework.Analyzer{
	Name: "respalias",
	Doc:  "values aliasing a resp.Reader buffer must not escape their Release window without a copy",
	Run:  run,
}

const maxRounds = 32

type state struct {
	pass *framework.Pass

	arenas   map[*types.TypeName]bool // declared in this package
	carriers map[*types.TypeName]bool
	aliased  map[*types.Func]bool
	tainted  map[types.Object]bool

	changed bool
	report  bool
}

func run(pass *framework.Pass) error {
	st := &state{
		pass:     pass,
		arenas:   map[*types.TypeName]bool{},
		carriers: map[*types.TypeName]bool{},
		aliased:  map[*types.Func]bool{},
		tainted:  map[types.Object]bool{},
	}
	st.findArenas()
	for round := 0; round < maxRounds; round++ {
		st.changed = false
		st.walk()
		if !st.changed {
			break
		}
	}
	st.report = true
	st.walk()
	st.exportFacts()
	return nil
}

// findArenas marks this package's arena types: a named struct with a
// Release method and at least one []byte (or [][]byte) field.
func (st *state) findArenas() {
	scope := st.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		strct, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		hasRelease := false
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == "Release" {
				hasRelease = true
			}
		}
		if !hasRelease {
			continue
		}
		for i := 0; i < strct.NumFields(); i++ {
			if isByteSliceish(strct.Field(i).Type()) {
				st.arenas[tn] = true
				break
			}
		}
	}
}

func (st *state) exportFacts() {
	for tn := range st.arenas {
		st.pass.ExportObjectFact(tn, &AliasArena{})
	}
	for tn := range st.carriers {
		st.pass.ExportObjectFact(tn, &AliasCarrier{})
	}
	for fn := range st.aliased {
		st.pass.ExportObjectFact(fn, &ReturnsAlias{})
	}
}

func isByteSliceish(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
		return true
	}
	return isByteSliceish(s.Elem())
}

// taintable reports whether a value of type t can reference arena
// memory: slices, pointers to taintables, and structs with taintable
// fields. Basics, strings (immutable copies), arrays (value copies),
// maps, channels, funcs and interfaces are not tracked.
func taintable(t types.Type) bool {
	return taintableDepth(t, 0)
}

func taintableDepth(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Pointer:
		return taintableDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if taintableDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// namedOf strips pointers and returns t's type name, if named.
func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func (st *state) isArena(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	if st.arenas[tn] {
		return true
	}
	return st.pass.ImportObjectFact(tn, &AliasArena{})
}

func (st *state) isCarrier(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	if st.carriers[tn] {
		return true
	}
	return st.pass.ImportObjectFact(tn, &AliasCarrier{})
}

func (st *state) fnAliases(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if st.aliased[fn] {
		return true
	}
	return st.pass.ImportObjectFact(fn, &ReturnsAlias{})
}

func (st *state) taint(obj types.Object) {
	if obj == nil || st.tainted[obj] || !taintable(obj.Type()) {
		return
	}
	st.tainted[obj] = true
	st.changed = true
}

func (st *state) markAliased(fn *types.Func) {
	if fn == nil || st.aliased[fn] {
		return
	}
	st.aliased[fn] = true
	st.changed = true
}

func (st *state) markCarrier(tn *types.TypeName) {
	if tn == nil || st.carriers[tn] {
		return
	}
	// Only this package's types become carriers here; imported ones
	// carry their own fact.
	if tn.Pkg() != st.pass.Pkg {
		return
	}
	st.carriers[tn] = true
	st.changed = true
}

// exprTainted reports whether evaluating e can yield a value aliasing
// an arena buffer.
func (st *state) exprTainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return st.tainted[st.pass.Info.Uses[x]] || st.tainted[st.pass.Info.Defs[x]]
	case *ast.ParenExpr:
		return st.exprTainted(x.X)
	case *ast.SelectorExpr:
		// Arena field access (rd.buf) and carrier field access
		// (rep.Str) are primary taint sources.
		if sel, ok := st.pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			base := namedOf(sel.Recv())
			fieldT := sel.Obj().Type()
			if isByteSliceish(fieldT) && (st.isArena(base) || st.isCarrier(base)) {
				return true
			}
			if st.exprTainted(x.X) && taintable(fieldT) {
				return true
			}
			return false
		}
		return false
	case *ast.IndexExpr:
		return st.exprTainted(x.X)
	case *ast.SliceExpr:
		return st.exprTainted(x.X)
	case *ast.StarExpr:
		return st.exprTainted(x.X)
	case *ast.UnaryExpr:
		return st.exprTainted(x.X)
	case *ast.TypeAssertExpr:
		return st.exprTainted(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if st.exprTainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return st.callTainted(x)
	}
	return false
}

// callTainted handles calls, conversions and the copy-breaking idioms.
func (st *state) callTainted(call *ast.CallExpr) bool {
	// T(x) conversions: string(x) and []byte(s) copy; identity-shaped
	// conversions (Reply(x)) keep the operand's taint.
	if tv, ok := st.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := tv.Type.Underlying()
		if b, ok := target.(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return false
		}
		if isByteSliceish(tv.Type) {
			if at, ok := st.pass.Info.Types[call.Args[0]]; ok {
				if ab, ok := at.Type.Underlying().(*types.Basic); ok && ab.Info()&types.IsString != 0 {
					return false // []byte(string) copies
				}
			}
		}
		return st.exprTainted(call.Args[0])
	}
	if id := calleeIdent(call); id != nil {
		if obj := st.pass.Info.Uses[id]; obj != nil {
			if b, ok := obj.(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					return st.appendTainted(call)
				case "make", "new", "len", "cap", "copy", "delete", "min", "max":
					return false
				}
			}
		}
	}
	if fn := st.callee(call); fn != nil {
		return st.fnAliases(fn)
	}
	return false
}

// appendTainted decides what an append result aliases. The base's
// aliases are kept. Appended ELEMENTS are copied — but a copy of a
// slice header (appending a []byte into a [][]byte, or a Reply into a
// []Reply) still points at the arena, while spreading bytes with
// append(dst, b...) copies the bytes themselves and breaks the alias.
// So: an appended element taints the result only if the element type
// is itself taintable.
func (st *state) appendTainted(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	if st.exprTainted(call.Args[0]) {
		return true
	}
	for i, arg := range call.Args[1:] {
		if !st.exprTainted(arg) {
			continue
		}
		elemT := st.pass.Info.Types[arg].Type
		if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
			// append(dst, src...): the elements of src are copied in.
			if s, ok := elemT.Underlying().(*types.Slice); ok {
				elemT = s.Elem()
			}
		}
		if taintable(elemT) {
			return true
		}
	}
	return false
}

func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

func (st *state) callee(call *ast.CallExpr) *types.Func {
	id := calleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := st.pass.Info.Uses[id].(*types.Func)
	return fn
}

// walk makes one monotone pass over every function body: propagate
// taint through assignments, ranges, returns and intra-package call
// sites; when report is set, also flag the escapes.
func (st *state) walk() {
	for _, file := range st.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := st.pass.Info.Defs[fd.Name].(*types.Func)
			st.walkBody(fd, fn)
		}
	}
}

func (st *state) walkBody(fd *ast.FuncDecl, fn *types.Func) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			st.handleAssign(node, fd)
		case *ast.RangeStmt:
			if st.exprTainted(node.X) {
				st.taintLHS(node.Key)
				st.taintLHS(node.Value)
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if st.exprTainted(res) {
					st.markAliased(fn)
					// A returned composite of a local struct type makes
					// that type an alias carrier for consumers.
					if lit, ok := ast.Unparen(res).(*ast.CompositeLit); ok {
						if tv, ok := st.pass.Info.Types[lit]; ok {
							st.markCarrier(namedOf(tv.Type))
						}
					} else if tv, ok := st.pass.Info.Types[res]; ok {
						if _, isStruct := tv.Type.Underlying().(*types.Struct); isStruct {
							st.markCarrier(namedOf(tv.Type))
						}
					}
				}
			}
		case *ast.CallExpr:
			st.taintCalleeParams(node)
		case *ast.SendStmt:
			if st.report && st.exprTainted(node.Value) {
				st.pass.Reportf(node.Arrow,
					"aliased resp buffer sent on a channel: the value is valid only until Release — copy it (append([]byte(nil), b...)) or justify with //spash:aliased")
			}
		case *ast.GoStmt:
			if st.report {
				st.checkGo(node)
			}
		}
		return true
	})
}

func (st *state) taintLHS(e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if obj := st.pass.Info.Defs[id]; obj != nil {
		st.taint(obj)
		return
	}
	st.taint(st.pass.Info.Uses[id])
}

// handleAssign propagates taint across an assignment and reports
// escaping stores.
func (st *state) handleAssign(as *ast.AssignStmt, fd *ast.FuncDecl) {
	// Tuple forms: x, y := call() / range handled elsewhere.
	tainted := func(i int) bool {
		if len(as.Rhs) == len(as.Lhs) {
			return st.exprTainted(as.Rhs[i])
		}
		if len(as.Rhs) == 1 {
			return st.exprTainted(as.Rhs[0])
		}
		return false
	}
	for i, lhs := range as.Lhs {
		if !tainted(i) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			// Package-level variables outlive every Release window.
			obj := st.pass.Info.Uses[l]
			if obj == nil {
				obj = st.pass.Info.Defs[l]
			}
			if st.report && obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				st.pass.Reportf(as.Pos(),
					"aliased resp buffer stored in package-level variable %s: the value is valid only until Release — copy it or justify with //spash:aliased", l.Name)
				continue
			}
			st.taintLHS(l)
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			st.checkEscapingStore(as, lhs, fd)
		}
	}
}

// checkEscapingStore flags a tainted store whose base resolves to a
// receiver, parameter or package-level variable — state that outlives
// the statement and therefore the Release window. Stores into the
// arena's own fields (the reader managing its buffers) are exempt, as
// are stores rooted at short-lived locals.
func (st *state) checkEscapingStore(as *ast.AssignStmt, lhs ast.Expr, fd *ast.FuncDecl) {
	if !st.report {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := st.pass.Info.Uses[root]
	if obj == nil {
		obj = st.pass.Info.Defs[root]
	}
	if obj == nil {
		return
	}
	if st.isArena(namedOf(obj.Type())) {
		return
	}
	longLived := false
	where := ""
	switch {
	case obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope():
		longLived, where = true, "package-level state"
	case isParamOrRecv(fd, st.pass.Info, obj):
		longLived, where = true, "caller-visible state"
	}
	if !longLived {
		return
	}
	st.pass.Reportf(as.Pos(),
		"aliased resp buffer escapes into %s through %s: the value is valid only until Release — copy it (append([]byte(nil), b...)) or justify with //spash:aliased",
		where, root.Name)
}

// rootIdent walks selector/index/star chains to the leftmost ident.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isParamOrRecv reports whether obj is fd's receiver or one of its
// parameters (including pointer receivers: a store through either is
// visible to the caller after return).
func isParamOrRecv(fd *ast.FuncDecl, info *types.Info, obj types.Object) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if info.Defs[name] == obj {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// taintCalleeParams propagates argument taint into a same-package
// callee's parameters (the intra-package half of the fixpoint; the
// cross-package half travels as ReturnsAlias facts).
func (st *state) taintCalleeParams(call *ast.CallExpr) {
	fn := st.callee(call)
	if fn == nil || fn.Pkg() != st.pass.Pkg {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		if !st.exprTainted(arg) {
			continue
		}
		pi := i
		if pi >= params.Len() {
			pi = params.Len() - 1 // variadic tail
		}
		if pi < 0 {
			continue
		}
		st.taint(params.At(pi))
	}
}

// checkGo flags goroutines launched with aliased arguments or
// capturing aliased locals: the goroutine's lifetime is unbounded by
// the Release window.
func (st *state) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if st.exprTainted(arg) {
			st.pass.Reportf(g.Go,
				"aliased resp buffer passed to a goroutine: the value is valid only until Release — copy it or justify with //spash:aliased")
			return
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	defined := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.pass.Info.Defs[id]; obj != nil {
				defined[obj] = true
			}
		}
		return true
	})
	var hit bool
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || hit {
			return !hit
		}
		if obj := st.pass.Info.Uses[id]; obj != nil && st.tainted[obj] && !defined[obj] {
			hit = true
		}
		return true
	})
	if hit {
		st.pass.Reportf(g.Go,
			"goroutine captures a buffer aliasing the resp read arena: the value is valid only until Release — copy it or justify with //spash:aliased")
	}
}
