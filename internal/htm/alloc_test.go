//go:build !race

package htm

import "testing"

// A writing commit allocates nothing: its lock list lives in the
// pooled descriptor. (Not measurable under -race, where sync.Pool
// drops descriptors at random.)
func TestWritingCommitDoesNotAllocate(t *testing.T) {
	tm, pool, c := newTestTM()
	body := func(tx *Txn) error {
		tx.Store(64, tx.Load(64)+1)
		return nil
	}
	if n := testing.AllocsPerRun(1000, func() { tm.Run(c, pool, body) }); n != 0 {
		t.Fatalf("one-word writing commit: %v allocs/run, want 0", n)
	}
}
