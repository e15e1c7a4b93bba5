//go:build !linux

package pmem

// mapping is empty where pool words are an ordinary Go slice.
type mapping struct{}

// newStorage returns size bytes of zeroed pool words (storage_linux.go
// reserves them in an anonymous mapping instead).
func newStorage(size uint64) ([]uint64, *mapping) {
	return make([]uint64, size/8), nil
}
