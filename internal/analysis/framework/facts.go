// Facts: the cross-package half of the framework. An analyzer running
// over one package can export a fact about one of its package-level
// objects (or about the package itself); an analyzer running over a
// downstream package imports that fact through the object it sees —
// even though the downstream pass resolved the dependency from export
// data and therefore holds a *different* types.Object for it. Keys are
// therefore stable strings (import path + a receiver-qualified name),
// never object identity.
//
// Facts live in a factStore that is filled in dependency order: Run
// processes packages topologically, so by the time a consumer package
// runs, every fact of its dependencies is present — Go's acyclic
// import graph makes one topological pass the cross-package fixpoint.
package framework

import (
	"go/types"
	"reflect"
)

// A Fact is a typed datum an analyzer attaches to a package-level
// object or a package. Facts are handled as pointers to their concrete
// type; an importer passes a pointer of the type it wants filled.
type Fact interface {
	AFact() // marker
}

// factKey names one fact: the owning package, the object's stable key
// ("" for package facts), and the concrete fact type's name.
type factKey struct {
	pkg string
	obj string
	typ string
}

// factStore holds every fact exported so far in a run. Run analyses
// one package at a time, so the store needs no lock.
type factStore map[factKey]Fact

// factTypeName names f's concrete type, pointer-stripped: facts are
// handled as pointers, named by their element type.
func factTypeName(f Fact) string {
	rt := reflect.TypeOf(f)
	if rt.Kind() == reflect.Pointer {
		rt = rt.Elem()
	}
	return rt.String()
}

// objectKey derives the stable cross-package key for a package-level
// object: "Name" for functions/vars/consts, "(Recv).Name" for methods,
// "type Name" for type names. Objects without a package (universe,
// locals) have no key.
func objectKey(obj types.Object) (pkgPath, key string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	pkgPath = obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, isPtr := rt.(*types.Pointer); isPtr {
				rt = p.Elem()
			}
			named, isNamed := rt.(*types.Named)
			if !isNamed {
				return "", "", false
			}
			return pkgPath, "(" + named.Obj().Name() + ")." + o.Name(), true
		}
		return pkgPath, o.Name(), true
	case *types.TypeName:
		return pkgPath, "type " + o.Name(), true
	default:
		// Only package-scope objects have stable keys.
		if obj.Parent() != obj.Pkg().Scope() {
			return "", "", false
		}
		return pkgPath, obj.Name(), true
	}
}

// exportObject records f for obj. Objects without a stable key are
// silently ignored (facts on locals are meaningless across packages).
func (s factStore) exportObject(obj types.Object, f Fact) {
	pkg, key, ok := objectKey(obj)
	if !ok {
		return
	}
	s[factKey{pkg: pkg, obj: key, typ: factTypeName(f)}] = f
}

// importObject copies the stored fact of f's concrete type for obj
// into f, reporting whether one was found.
func (s factStore) importObject(obj types.Object, f Fact) bool {
	pkg, key, ok := objectKey(obj)
	if !ok {
		return false
	}
	return s.fill(factKey{pkg: pkg, obj: key, typ: factTypeName(f)}, f)
}

func (s factStore) exportPackage(pkgPath string, f Fact) {
	s[factKey{pkg: pkgPath, typ: factTypeName(f)}] = f
}

func (s factStore) importPackage(pkgPath string, f Fact) bool {
	return s.fill(factKey{pkg: pkgPath, typ: factTypeName(f)}, f)
}

// fill copies the stored fact at k into dst via reflection (dst must
// be a pointer to the same concrete type, which the typ component of
// the key guarantees).
func (s factStore) fill(k factKey, dst Fact) bool {
	src, ok := s[k]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
