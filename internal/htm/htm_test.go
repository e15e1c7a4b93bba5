package htm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spash/internal/pmem"
	"spash/internal/vsync"
)

func newTestTM() (*TM, *pmem.Pool, *pmem.Ctx) {
	tm := New(Config{Stripes: 1 << 12, WriteCapacityWords: 128, ReadCapacityWords: 1024})
	pool := pmem.New(pmem.Config{PoolSize: 4 << 20})
	return tm, pool, pool.NewCtx()
}

func mustCommit(t *testing.T, tm *TM, c *pmem.Ctx, pool *pmem.Pool, body func(tx *Txn) error) {
	t.Helper()
	code, err := tm.Run(c, pool, body)
	if code != Committed || err != nil {
		t.Fatalf("Run = %v, %v; want committed", code, err)
	}
}

func TestCommitPublishesWrites(t *testing.T) {
	tm, pool, c := newTestTM()
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		tx.Store(64, 7)
		tx.Store(128, 8)
		return nil
	})
	if v := pool.Load64(c, 64); v != 7 {
		t.Fatalf("word 64 = %d", v)
	}
	if v := pool.Load64(c, 128); v != 8 {
		t.Fatalf("word 128 = %d", v)
	}
}

func TestExplicitAbortDiscardsWrites(t *testing.T) {
	tm, pool, c := newTestTM()
	code, err := tm.Run(c, pool, func(tx *Txn) error {
		tx.Store(64, 99)
		return ErrAbort
	})
	if code != Explicit || !errors.Is(err, ErrAbort) {
		t.Fatalf("Run = %v, %v", code, err)
	}
	if v := pool.Load64(c, 64); v != 0 {
		t.Fatalf("aborted write published: %d", v)
	}
}

func TestReadOwnWrites(t *testing.T) {
	tm, pool, c := newTestTM()
	var vol uint64
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		tx.Store(64, 5)
		if got := tx.Load(64); got != 5 {
			return fmt.Errorf("read-own-write PM = %d", got)
		}
		tx.StoreVol(&vol, 6)
		if got := tx.LoadVol(&vol); got != 6 {
			return fmt.Errorf("read-own-write vol = %d", got)
		}
		tx.Store(64, 7) // overwrite in place
		if got := tx.Load(64); got != 7 {
			return fmt.Errorf("overwrite = %d", got)
		}
		return nil
	})
	if vol != 6 {
		t.Fatalf("vol = %d", vol)
	}
}

func TestCapacityAbort(t *testing.T) {
	tm, pool, c := newTestTM()
	code, _ := tm.Run(c, pool, func(tx *Txn) error {
		for i := 0; i < 1000; i++ {
			tx.Store(uint64(64+8*i), uint64(i))
		}
		return nil
	})
	if code != Capacity {
		t.Fatalf("code = %v, want capacity", code)
	}
	// Nothing leaked.
	if v := pool.Load64(c, 64); v != 0 {
		t.Fatalf("capacity-aborted write published: %d", v)
	}
}

func TestReadCapacityAbort(t *testing.T) {
	tm, pool, c := newTestTM()
	code, _ := tm.Run(c, pool, func(tx *Txn) error {
		for i := 0; i < 5000; i++ {
			tx.Load(uint64(64 + 8*i))
		}
		return nil
	})
	if code != Capacity {
		t.Fatalf("code = %v, want capacity", code)
	}
}

func TestBumpStoreConflictsReaders(t *testing.T) {
	tm, pool, c := newTestTM()
	pool.Store64(c, 64, 1)
	code, _ := tm.Run(c, pool, func(tx *Txn) error {
		if tx.Load(64) != 1 {
			t.Error("stale read")
		}
		// A concurrent non-transactional bumping store lands mid-txn.
		tm.BumpStore64(c, pool, 64, 2)
		tx.Store(128, 42)
		return nil
	})
	if code != Conflict {
		t.Fatalf("code = %v, want conflict", code)
	}
	if v := pool.Load64(c, 128); v != 0 {
		t.Fatalf("conflicting txn published: %d", v)
	}
}

func TestBumpCASVol(t *testing.T) {
	tm, _, c := newTestTM()
	var word uint64 = 3
	if !tm.BumpCASVol(c, &word, 3, 4) {
		t.Fatal("CAS failed")
	}
	if tm.BumpCASVol(c, &word, 3, 5) {
		t.Fatal("stale CAS succeeded")
	}
	if word != 4 {
		t.Fatalf("word = %d", word)
	}
}

// Concurrent increments of one PM counter must all be preserved:
// transactional read-modify-write is atomic.
func TestConcurrentCounterAtomicity(t *testing.T) {
	tm, pool, _ := newTestTM()
	const workers, incs = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := pool.NewCtx()
			for i := 0; i < incs; i++ {
				for {
					code, _ := tm.Run(c, pool, func(tx *Txn) error {
						tx.Store(64, tx.Load(64)+1)
						return nil
					})
					if code == Committed {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	c := pool.NewCtx()
	if v := pool.Load64(c, 64); v != workers*incs {
		t.Fatalf("counter = %d, want %d", v, workers*incs)
	}
}

// Two words must always be observed consistent: writers keep
// words[a] == words[b]; transactional readers must never see them
// differ (multi-word atomicity, the property CAS-based designs lack).
// The same-line pair goes through the reader's current-line memo: its
// second load skips the pre-check but not the re-validation.
func TestMultiWordInvariantUnderConcurrency(t *testing.T) {
	for _, pair := range []struct {
		name string
		a, b uint64
	}{
		{"distinct lines", 1024, 4096},
		{"one line", 1024, 1032},
	} {
		t.Run(pair.name, func(t *testing.T) {
			tm, pool, _ := newTestTM()
			a, b := pair.a, pair.b
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := pool.NewCtx()
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tm.Run(c, pool, func(tx *Txn) error {
						tx.Store(a, i)
						tx.Store(b, i)
						return nil
					})
				}
			}()
			c := pool.NewCtx()
			for i := 0; i < 5000; i++ {
				var va, vb uint64
				code, _ := tm.Run(c, pool, func(tx *Txn) error {
					va = tx.Load(a)
					vb = tx.Load(b)
					return nil
				})
				if code == Committed && va != vb {
					t.Fatalf("observed torn state: %d != %d", va, vb)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// A writer committing to a line between a reader's first and second
// load of it dooms the reader at that second load: the memo may not
// hand out a word newer than the version it recorded.
func TestSameLineLoadRevalidates(t *testing.T) {
	tm, pool, c := newTestTM()
	wc := pool.NewCtx()
	second := false
	code, _ := tm.Run(c, pool, func(tx *Txn) error {
		tx.Load(64)
		mustCommit(t, tm, wc, pool, func(w *Txn) error {
			w.Store(64, 1)
			w.Store(72, 1)
			return nil
		})
		tx.Load(72)
		second = true
		return nil
	})
	if code != Conflict || second {
		t.Fatalf("code = %v, second load returned = %v; want a conflict at the second load", code, second)
	}
}

// Conflicts are tracked per cacheline: writers of two words of one
// line conflict, writers of words on two lines do not.
func TestConflictGranularityIsTheLine(t *testing.T) {
	tm, pool, c := newTestTM()
	wc := pool.NewCtx()
	const mine, sameLine, otherLine = 64, 64 + 56, 128
	if tm.stripeFor(mine) != tm.stripeFor(sameLine) {
		t.Fatal("two words of one line on different stripes")
	}
	if tm.stripeFor(mine) == tm.stripeFor(otherLine) {
		t.Fatal("test lines alias; pick others")
	}
	for _, tc := range []struct {
		theirs uint64
		want   Code
	}{
		{sameLine, Conflict},
		{otherLine, Committed},
	} {
		code, _ := tm.Run(c, pool, func(tx *Txn) error {
			tx.Store(mine, 1)
			mustCommit(t, tm, wc, pool, func(w *Txn) error {
				w.Store(tc.theirs, 2)
				return nil
			})
			return nil
		})
		if code != tc.want {
			t.Errorf("concurrent write to %d: %v, want %v", tc.theirs, code, tc.want)
		}
	}
}

// The read set holds one entry per line while the capacity budget
// still counts words.
func TestSegmentScanReadSet(t *testing.T) {
	tm, pool, c := newTestTM()
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		for i := uint64(0); i < 32; i++ {
			tx.Load(256 + 8*i)
		}
		if len(tx.rs) != 4 || tx.nread != 32 {
			return fmt.Errorf("read set = %d entries, %d words; want 4, 32", len(tx.rs), tx.nread)
		}
		return nil
	})
}

func TestReadOnlyTxnCommitsWithoutLocks(t *testing.T) {
	tm, pool, c := newTestTM()
	pool.Store64(c, 64, 11)
	var got uint64
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		got = tx.Load(64)
		return nil
	})
	if got != 11 {
		t.Fatalf("got %d", got)
	}
}

func TestVolatileWords(t *testing.T) {
	tm, pool, c := newTestTM()
	dir := make([]uint64, 16)
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		for i := range dir {
			tx.StoreVol(&dir[i], uint64(i)*10)
		}
		return nil
	})
	for i := range dir {
		if dir[i] != uint64(i)*10 {
			t.Fatalf("dir[%d] = %d", i, dir[i])
		}
	}
}

func TestCommitSerialAccounting(t *testing.T) {
	tm, pool, c := newTestTM()
	var g vsync.Group
	tm.Group = &g
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		tx.Store(64, 1)
		return nil
	})
	if g.MaxSerialNS() == 0 {
		t.Fatal("commit did not account stripe serialisation")
	}
}

// A panic raised by the body that is not an abort signal must
// propagate to the caller, not be swallowed.
func TestForeignPanicPropagates(t *testing.T) {
	tm, pool, c := newTestTM()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v", r)
		}
	}()
	tm.Run(c, pool, func(tx *Txn) error { panic("boom") })
}

func TestStatsCounters(t *testing.T) {
	tm, pool, c := newTestTM()
	mustCommit(t, tm, c, pool, func(tx *Txn) error { tx.Store(64, 1); return nil })
	tm.Run(c, pool, func(tx *Txn) error { return ErrAbort })
	tm.Run(c, pool, func(tx *Txn) error {
		for i := 0; i < 1000; i++ {
			tx.Store(uint64(64+8*i), 1)
		}
		return nil
	})
	tm.Irrevocable(c, pool, func(it *ITxn) error { return nil })
	st := tm.Stats()
	if st.Commits < 1 || st.Explicits != 1 || st.Capacities != 1 || st.Irrevocable != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
