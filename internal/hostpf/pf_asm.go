//go:build amd64 || arm64

package hostpf

import "unsafe"

// Line starts fetching the cacheline holding *p into the host's caches
// (PREFETCHT0 / PRFM PLDL1KEEP). It never faults, whatever p is.
//
//go:noescape
func Line(p unsafe.Pointer)
