package pmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapping owns the anonymous mapping behind one pool's words. The pool
// reserves its whole capacity up front and the kernel commits it a page
// at a time on first touch: simulated capacity no index has written
// costs no host memory, and a word never written reads the shared zero
// page. The memory is outside the Go heap, so the runtime neither
// zeroes it when a pool is created nor scans it.
//
// The finalizer that unmaps it sits here, on an object that references
// nothing on the Go heap and that only its Pool references, not on the
// Pool: Pool.ctxs and Ctx.pool form a cycle, and the runtime does not
// promise to run finalizers on cycles.
type mapping struct{ mem []byte }

// liveMappings counts pool mappings not yet unmapped (tests read it).
var liveMappings atomic.Int64

// newStorage returns size bytes of zeroed pool words and their owner,
// which must stay reachable as long as the words are used.
func newStorage(size uint64) ([]uint64, *mapping) {
	mem, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("pmem: reserving a %d-byte pool: %v", size, err))
	}
	m := &mapping{mem: mem}
	liveMappings.Add(1)
	runtime.SetFinalizer(m, (*mapping).unmap)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), size/8), m
}

func (m *mapping) unmap() {
	if err := syscall.Munmap(m.mem); err != nil {
		panic(fmt.Sprintf("pmem: unmapping a pool: %v", err))
	}
	liveMappings.Add(-1)
}
