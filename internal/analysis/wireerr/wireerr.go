// Package wireerr keeps the typed replication errors round-trippable
// across the wire. The contract: every "-REPL <CODE>" the server
// encodes must decode back to the same sentinel on the client, so
// errors.Is(err, spash.ErrNotPrimary) and friends hold on both sides
// of a TCP hop exactly as in-process.
//
// The check is a symbol-table diff, fed by a cross-package fact. The
// package that declares the replication transport (an interface with a
// Ship method — internal/repl) exports a WireSentinels package fact
// listing the module sentinels its refusal paths reference. The
// package that owns the wire mapping (internal/server's wire.go)
// declares one code table that both directions read: a slice of
// struct rows, each a code string literal and a sentinel. Encoding
// takes the first row whose sentinel the error matches, decoding the
// first row whose code matches, so the two directions are inverses
// unless the table repeats itself. wireerr diffs the table against
// itself and against the fact:
//
//   - a code listed twice decodes to the first row's sentinel only:
//     the later row's sentinel is mistranslated crossing the wire;
//   - a sentinel listed twice encodes to the first row's code only: the
//     later code is dead vocabulary;
//   - a transport sentinel (from the fact) with no row falls through to
//     the generic ERR code and loses its identity crossing the wire.
package wireerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"

	"spash/internal/analysis/framework"
	"spash/internal/analysis/sym"
)

// WireSentinels is a package fact listing the fully-qualified names of
// the module sentinels a transport-declaring package references in its
// refusal paths.
type WireSentinels struct {
	Names []string
}

func (*WireSentinels) AFact() {}

var Analyzer = &framework.Analyzer{
	Name:      "wireerr",
	Doc:       "every -REPL <CODE> wire error must round-trip encode/decode to the same registered sentinel",
	Run:       run,
	FactTypes: []framework.Fact{(*WireSentinels)(nil)},
}

// row is one code<->sentinel pair of the table.
type row struct {
	code     string
	sentinel string // qualified sentinel name, e.g. "spash.ErrNotPrimary"
	pos      token.Pos
}

func run(pass *framework.Pass) error {
	if declaresTransport(pass.Pkg) {
		if names := referencedSentinels(pass); len(names) > 0 {
			pass.ExportPackageFact(&WireSentinels{Names: names})
		}
	}
	rows, pos := findCodeTable(pass)
	if rows == nil {
		return nil
	}
	codes := map[string]row{}
	encoded := map[string]row{}
	for _, r := range rows {
		if first, ok := codes[r.code]; ok {
			pass.Reportf(r.pos,
				"wire code %q is listed twice: it decodes to %s only, so %s is mistranslated crossing the wire", r.code, first.sentinel, r.sentinel)
		} else {
			codes[r.code] = r
		}
		if first, ok := encoded[r.sentinel]; ok {
			pass.Reportf(r.pos,
				"%s is listed twice: it encodes as %q only, so wire code %q is dead vocabulary — remove the row", r.sentinel, first.code, r.code)
		} else {
			encoded[r.sentinel] = r
		}
	}
	for _, imp := range pass.Pkg.Imports() {
		var ws WireSentinels
		if !pass.ImportPackageFact(imp, &ws) {
			continue
		}
		for _, name := range ws.Names {
			if _, ok := encoded[name]; !ok {
				pass.Reportf(pos,
					"transport sentinel %s has no wire encoding: refusals carrying it degrade to a generic ERR across the wire — add a row to the code table", name)
			}
		}
	}
	return nil
}

// declaresTransport reports whether pkg declares an interface with a
// Ship method (the replication transport seam).
func declaresTransport(pkg *types.Package) bool {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Ship" {
				return true
			}
		}
	}
	return false
}

// referencedSentinels lists the module sentinels the package's source
// references, qualified as pkgpath.Name, sorted.
func referencedSentinels(pass *framework.Pass) []string {
	seen := map[string]bool{}
	for _, obj := range pass.Info.Uses {
		if sym.SentinelError(obj) {
			seen[obj.Pkg().Path()+"."+obj.Name()] = true
		}
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// findCodeTable finds the package's code table: a slice literal of
// struct rows, each holding a string-literal code and a module
// sentinel. At least two such rows make it the table; it returns the
// rows in order and the literal's position.
func findCodeTable(pass *framework.Pass) ([]row, token.Pos) {
	var rows []row
	var pos token.Pos
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if rows != nil {
				return false
			}
			lit, ok := n.(*ast.CompositeLit)
			if !ok || pass.Info.Types[lit].Type == nil {
				return true
			}
			if _, ok := pass.Info.Types[lit].Type.Underlying().(*types.Slice); !ok {
				return true
			}
			var found []row
			for _, elt := range lit.Elts {
				if r, ok := tableRow(pass, elt); ok {
					found = append(found, r)
				}
			}
			if len(found) >= 2 {
				rows, pos = found, lit.Pos()
			}
			return true
		})
	}
	return rows, pos
}

// tableRow matches one row literal: a code string literal and a
// sentinel, positional or keyed.
func tableRow(pass *framework.Pass, e ast.Expr) (row, bool) {
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return row{}, false
	}
	r := row{pos: lit.Pos()}
	for _, f := range lit.Elts {
		if kv, ok := f.(*ast.KeyValueExpr); ok {
			f = kv.Value
		}
		if bl, ok := ast.Unparen(f).(*ast.BasicLit); ok && bl.Kind == token.STRING {
			if code, err := strconv.Unquote(bl.Value); err == nil {
				r.code = code
			}
		} else if name, ok := sentinelName(pass, f); ok {
			r.sentinel = name
		}
	}
	return r, r.code != "" && r.sentinel != ""
}

// sentinelName resolves e to a module sentinel's qualified name.
func sentinelName(pass *framework.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	obj := pass.Info.Uses[id]
	if obj == nil || !sym.SentinelError(obj) {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}
