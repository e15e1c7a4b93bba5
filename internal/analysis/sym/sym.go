// Package sym recognises the spash symbols the analyzers key on:
// methods of the simulated PM pool, the HTM domain, and the per-worker
// context. Matching is by package-path suffix so the checks also apply
// to fixture packages and would survive a module rename.
package sym

import (
	"go/ast"
	"go/types"
	"strings"
)

// Package-path suffixes of the packages that own the checked symbols.
const (
	PmemPath = "internal/pmem"
	HTMPath  = "internal/htm"
	CorePath = "internal/core"
	RespPath = "internal/resp"
	RootPath = "spash"
)

// isNamed reports whether t (after pointer stripping) is the named
// type pkgSuffix.name.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pkgPathMatches(obj.Pkg().Path(), pkgSuffix)
}

func pkgPathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// PkgMatches reports whether the import path is, or ends with, one of
// the given package-path suffixes (a trailing "/" on a suffix matches
// any package under that tree).
func PkgMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if tree, ok := strings.CutSuffix(s, "/"); ok {
			if strings.Contains(path+"/", "/"+tree+"/") || strings.HasPrefix(path+"/", tree+"/") {
				return true
			}
			continue
		}
		if pkgPathMatches(path, s) {
			return true
		}
	}
	return false
}

// IsCtxPtr reports whether t is *pmem.Ctx.
func IsCtxPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamed(p.Elem(), PmemPath, "Ctx")
}

// methodOn resolves call to a method selector on the named receiver
// type, returning the method name.
func methodOn(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	if !isNamed(selection.Recv(), pkgSuffix, typeName) {
		return "", false
	}
	return sel.Sel.Name, true
}

// PoolMethod returns the method name if call invokes a method on
// *pmem.Pool (or pmem.Pool).
func PoolMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	return methodOn(info, call, PmemPath, "Pool")
}

// TMMethod returns the method name if call invokes a method on
// *htm.TM.
func TMMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	return methodOn(info, call, HTMPath, "TM")
}

// MutatingPoolMethods are the pmem.Pool methods that change PM
// contents. Load64/Read/Flush/Fence/Prefetch are not mutations.
var MutatingPoolMethods = map[string]bool{
	"Store64":   true,
	"StoreLine": true,
	"CAS64":     true,
	"Write":     true,
	"NTStore":   true,
}

// ErrorType returns the universe error interface.
func ErrorType() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}

// IsErrorInterface reports whether t's static type is exactly the
// error interface (not a concrete implementation).
func IsErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil {
		return true
	}
	i, ok := t.Underlying().(*types.Interface)
	return ok && types.Identical(i, ErrorType())
}

// TypedError reports whether t (after pointer stripping) is one of the
// repo's typed errors that must be matched with errors.Is/errors.As:
// core.CorruptionError, core.GeometryError, pmem.AccessError,
// spash.ReplicationError, resp.Error (fatal/recoverable protocol
// classification goes through resp.IsFatal, which is errors.As
// underneath — never a type switch on the error value).
func TypedError(t types.Type) (string, bool) {
	for _, te := range []struct{ pkg, name string }{
		{CorePath, "CorruptionError"},
		{CorePath, "GeometryError"},
		{PmemPath, "AccessError"},
		{RootPath, "ReplicationError"},
		{RespPath, "Error"},
	} {
		if isNamed(t, te.pkg, te.name) {
			return te.name, true
		}
	}
	return "", false
}

// SentinelError reports whether obj is a package-level Err* sentinel
// of the spash module (e.g. pmem.ErrPoisoned, core.ErrCorrupted,
// spash.ErrClosed).
func SentinelError(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	path := v.Pkg().Path()
	if path != "spash" && !strings.HasPrefix(path, "spash/") {
		return false
	}
	return types.Implements(v.Type(), ErrorType()) || IsErrorInterface(v.Type())
}
