package htm

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

// TestWriteHotWordsLayout guards TM's host-line layout: the global clock
// and the counters, written by commits on every core, share no line with
// the words every transactional load reads, nor with each other (a
// read-only commit bumps a counter but must not evict the clock).
func TestWriteHotWordsLayout(t *testing.T) {
	var tm TM
	align := unsafe.Alignof(tm)
	read := []field{
		{"cfg", unsafe.Offsetof(tm.cfg), unsafe.Sizeof(tm.cfg)},
		{"vers", unsafe.Offsetof(tm.vers), unsafe.Sizeof(tm.vers)},
		{"serial", unsafe.Offsetof(tm.serial), unsafe.Sizeof(tm.serial)},
		{"mask", unsafe.Offsetof(tm.mask), unsafe.Sizeof(tm.mask)},
		{"Group", unsafe.Offsetof(tm.Group), unsafe.Sizeof(tm.Group)},
	}
	clock := field{"clock", unsafe.Offsetof(tm.clock), unsafe.Sizeof(tm.clock)}
	counters := []field{
		{"commits", unsafe.Offsetof(tm.commits), unsafe.Sizeof(tm.commits)},
		{"conflicts", unsafe.Offsetof(tm.conflicts), unsafe.Sizeof(tm.conflicts)},
		{"capacities", unsafe.Offsetof(tm.capacities), unsafe.Sizeof(tm.capacities)},
		{"explicits", unsafe.Offsetof(tm.explicits), unsafe.Sizeof(tm.explicits)},
		{"irrevocable", unsafe.Offsetof(tm.irrevocable), unsafe.Sizeof(tm.irrevocable)},
	}
	for _, w := range append([]field{clock}, counters...) {
		for _, r := range read {
			if sharesLine(align, w, r) {
				t.Errorf("TM.%s can share a host line with TM.%s", w.name, r.name)
			}
		}
	}
	for _, w := range counters {
		if sharesLine(align, w, clock) {
			t.Errorf("TM.%s can share a host line with TM.clock", w.name)
		}
	}
}
