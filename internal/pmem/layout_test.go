package pmem

import (
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

// TestWriteHotWordsLayout guards the host-line layout of the words the
// workers of a pool write: every XPBuffer shard fills whole lines, and a
// context's published operation state shares no line with whatever the
// allocator places beside the context.
func TestWriteHotWordsLayout(t *testing.T) {
	if n := unsafe.Sizeof(xpShard{}); n%hostLine != 0 {
		t.Errorf("Sizeof(xpShard{}) = %d, not a multiple of %d: neighbouring shards share lines", n, hostLine)
	}
	var c Ctx
	align, size := unsafe.Alignof(c), unsafe.Sizeof(c)
	ends := []field{{"first byte", 0, 1}, {"last byte", size - 1, 1}}
	for _, w := range []field{
		{"inOp", unsafe.Offsetof(c.inOp), unsafe.Sizeof(c.inOp)},
		{"inAtomic", unsafe.Offsetof(c.inAtomic), unsafe.Sizeof(c.inAtomic)},
	} {
		for _, e := range ends {
			if sharesLine(align, w, e) {
				t.Errorf("Ctx.%s (offset %d of %d) can share a host line with the context's %s, so with its neighbour",
					w.name, w.off, size, e.name)
			}
		}
	}
}
