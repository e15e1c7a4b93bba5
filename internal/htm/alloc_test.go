//go:build !race

package htm

import "testing"

// A writing commit allocates nothing: its lock list and its publish
// run live in the pooled descriptor. (Not measurable under -race, where
// sync.Pool drops descriptors at random.)
func TestWritingCommitDoesNotAllocate(t *testing.T) {
	tm, pool, c := newTestTM()
	var vol uint64
	for name, body := range map[string]func(tx *Txn) error{
		"one word": func(tx *Txn) error {
			tx.Store(64, tx.Load(64)+1)
			return nil
		},
		"runs over two lines and a volatile word": func(tx *Txn) error {
			for addr := uint64(128); addr < 256; addr += 8 {
				tx.Store(addr, tx.Load(addr)+1)
			}
			tx.StoreVol(&vol, tx.LoadVol(&vol)+1)
			tx.Store(192, 7)
			return nil
		},
	} {
		if n := testing.AllocsPerRun(1000, func() { tm.Run(c, pool, body) }); n != 0 {
			t.Fatalf("%s: %v allocs/run, want 0", name, n)
		}
	}
}
