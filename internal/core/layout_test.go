package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// hostLine is the host's cache line, the unit two cores bounce.
const hostLine = 64

type field struct {
	name      string
	off, size uintptr
}

// sharesLine reports whether some placement of a struct aligned to align
// puts a byte of a and a byte of b on one host line.
func sharesLine(align uintptr, a, b field) bool {
	for base := uintptr(0); base < hostLine; base += align {
		a0, a1 := (base+a.off)/hostLine, (base+a.off+a.size-1)/hostLine
		b0, b1 := (base+b.off)/hostLine, (base+b.off+b.size-1)/hostLine
		if a0 <= b1 && b0 <= a1 {
			return true
		}
	}
	return false
}

// TestWriteHotWordsLayout guards the host-line layout of the words
// operations on every worker write: Index's counters share no line with
// the words every operation reads, and neither does the hot-key
// detector's hit counter.
func TestWriteHotWordsLayout(t *testing.T) {
	check := func(typ string, align uintptr, write, read []field) {
		t.Helper()
		for _, w := range write {
			for _, r := range read {
				if sharesLine(align, w, r) {
					t.Errorf("%s.%s can share a host line with %s.%s", typ, w.name, typ, r.name)
				}
			}
		}
	}

	var ix Index
	check("Index", unsafe.Alignof(ix), []field{
		{"entries", unsafe.Offsetof(ix.entries), unsafe.Sizeof(ix.entries)},
		{"segments", unsafe.Offsetof(ix.segments), unsafe.Sizeof(ix.segments)},
		{"splits", unsafe.Offsetof(ix.splits), unsafe.Sizeof(ix.splits)},
		{"merges", unsafe.Offsetof(ix.merges), unsafe.Sizeof(ix.merges)},
		{"txConflicts", unsafe.Offsetof(ix.txConflicts), unsafe.Sizeof(ix.txConflicts)},
		{"txCapacity", unsafe.Offsetof(ix.txCapacity), unsafe.Sizeof(ix.txCapacity)},
		{"fallbacks", unsafe.Offsetof(ix.fallbacks), unsafe.Sizeof(ix.fallbacks)},
	}, []field{
		{"pool", unsafe.Offsetof(ix.pool), unsafe.Sizeof(ix.pool)},
		{"tm", unsafe.Offsetof(ix.tm), unsafe.Sizeof(ix.tm)},
		{"cfg", unsafe.Offsetof(ix.cfg), unsafe.Sizeof(ix.cfg)},
		{"dirGen", unsafe.Offsetof(ix.dirGen), unsafe.Sizeof(ix.dirGen)},
		{"dir", unsafe.Offsetof(ix.dir), unsafe.Sizeof(ix.dir)},
		{"doubling", unsafe.Offsetof(ix.doubling), unsafe.Sizeof(ix.doubling)},
		{"hot", unsafe.Offsetof(ix.hot), unsafe.Sizeof(ix.hot)},
		{"lastResizeCost", unsafe.Offsetof(ix.lastResizeCost), unsafe.Sizeof(ix.lastResizeCost)},
		{"resizeEpoch", unsafe.Offsetof(ix.resizeEpoch), unsafe.Sizeof(ix.resizeEpoch)},
		{"epoch", unsafe.Offsetof(ix.epoch), unsafe.Sizeof(ix.epoch)},
	})

	var hs hotspot
	check("hotspot", unsafe.Alignof(hs), []field{
		{"hits", unsafe.Offsetof(hs.hits), unsafe.Sizeof(hs.hits)},
	}, []field{
		{"bits", unsafe.Offsetof(hs.bits), unsafe.Sizeof(hs.bits)},
		{"q", unsafe.Offsetof(hs.q), unsafe.Sizeof(hs.q)},
		{"parts", unsafe.Offsetof(hs.parts), unsafe.Sizeof(hs.parts)},
	})
}

// concurrencyReaders are the only functions allowed to read
// Config.Concurrency: the protocol is chosen once, when the index is
// built, and the op path runs whatever was chosen without asking again.
var concurrencyReaders = map[string]bool{
	"Config.withDefaults":    true,
	"newIndex":               true,
	"ConcurrencyMode.String": true,
}

// TestConcurrencyReadOnlyAtConstruction parses the package's non-test
// files and fails on any .Concurrency selector outside concurrencyReaders.
func TestConcurrencyReadOnlyAtConstruction(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, fi := range files {
		name := fi.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if st, ok := typ.(*ast.StarExpr); ok {
					typ = st.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					fn = id.Name + "." + fn
				}
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Concurrency" && !concurrencyReaders[fn] {
					t.Errorf("%s: %s reads Concurrency; choose the protocol in newIndex", fset.Position(sel.Pos()), fn)
				}
				return true
			})
		}
	}
}
