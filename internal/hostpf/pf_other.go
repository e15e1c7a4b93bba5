//go:build !amd64 && !arm64

package hostpf

import "unsafe"

// Line does nothing on architectures without a stub: a hint is only
// ever a hint.
func Line(unsafe.Pointer) {}
