package htm

import (
	"encoding/binary"
	"sync"
	"testing"

	"spash/internal/pmem"
)

// Lines of publishFixture's pool: lineHot is resident (the last line the
// fixture wrote), lineCold and lineFar are not, so storing to them evicts
// dirty lines.
const (
	lineHot  = 64<<10 - 64
	lineCold = 1 << 20
	lineFar  = 2 << 20
)

// publishSet is a write set in buffer order: three words of lineHot, two
// of lineCold, a fourth of lineHot, a volatile word, then all of lineFar.
// Its PM words form four runs (hot, cold, hot, far) over 14 words.
func publishSet(vol *uint64) (words []pmem.Word, runs int) {
	for _, w := range []uint64{0, 1, 2} {
		words = append(words, pmem.Word{Addr: lineHot + 8*w, Val: 0xA0 + w})
	}
	for _, w := range []uint64{5, 6} {
		words = append(words, pmem.Word{Addr: lineCold + 8*w, Val: 0xB0 + w})
	}
	words = append(words, pmem.Word{Addr: lineHot + 24, Val: 0xA3})
	words = append(words, pmem.Word{}) // the volatile word's place
	for w := uint64(0); w < 8; w++ {
		words = append(words, pmem.Word{Addr: lineFar + 8*w, Val: 0xF0 + w})
	}
	return words, 4
}

// publishFixture is a pool with a 4 KB cache full of dirty lines, inside
// an open operation: equal state for every publisher under test.
func publishFixture(mode pmem.Mode) (*TM, *pmem.Pool, *pmem.Ctx) {
	tm := New(Config{Stripes: 1 << 12, WriteCapacityWords: 128, ReadCapacityWords: 1024})
	pool := pmem.New(pmem.Config{PoolSize: 4 << 20, CacheSize: 4 << 10, Mode: mode})
	c := pool.NewCtx()
	pat := make([]byte, 64<<10)
	for i := range pat {
		pat[i] = byte(i*7 + i>>8)
	}
	pool.Write(c, 0, pat)
	c.BeginOp()
	return tm, pool, c
}

// published is what one publisher leaves behind: the context's counters,
// the clock the publish cost, the dirty lines, and what a power cut then
// loses and keeps.
type published struct {
	stats pmem.Stats
	ns    int64
	dirty int
	lost  int
	image [3][8]uint64 // lineHot, lineCold, lineFar after the cut
}

func publishWith(t *testing.T, how string, mode pmem.Mode) published {
	t.Helper()
	tm, pool, c := publishFixture(mode)
	var vol uint64
	words, _ := publishSet(&vol)
	before, t0 := c.Stats(), c.Clock()
	switch how {
	case "txn":
		mustCommit(t, tm, c, pool, func(tx *Txn) error {
			for _, w := range words {
				if w.Addr == 0 {
					tx.StoreVol(&vol, 1)
				} else {
					tx.Store(w.Addr, w.Val)
				}
			}
			return nil
		})
	case "store64":
		// The publish loop a commit ran before runs were merged.
		pool.BeginAtomic(c)
		for _, w := range words {
			if w.Addr != 0 {
				pool.Store64(c, w.Addr, w.Val)
			}
		}
		pool.EndAtomic(c)
	}
	r := published{stats: c.Stats().Sub(before), ns: c.Clock() - t0, dirty: pool.DirtyLines()}
	c.EndOp()
	r.lost = pool.Crash()
	for i, line := range []uint64{lineHot, lineCold, lineFar} {
		for w := range r.image[i] {
			r.image[i][w] = pool.Peek(line + 8*uint64(w))
		}
	}
	return r
}

// From equal pool state, a commit of k words over L runs enters the same
// sets in the same order as a Store64 per word: the same misses, media
// reads and writes, evictions and dirty lines, the same ADR rollback, and
// k - L fewer hits.
func TestPublishMatchesStoreLoopButForHits(t *testing.T) {
	var vol uint64
	words, runs := publishSet(&vol)
	k := len(words) - 1 // less the volatile word
	for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
		loop, txn := publishWith(t, "store64", mode), publishWith(t, "txn", mode)
		if loop.stats.CacheMisses == 0 || loop.stats.Evictions == 0 || loop.stats.XPLineWrites == 0 {
			t.Fatalf("%v: fixture gives %+v, want misses that evict", mode, loop.stats)
		}
		if d := loop.stats.CacheHits - txn.stats.CacheHits; d != uint64(k-runs) {
			t.Errorf("%v: the Store64 loop took %d more hits than the commit, want k - L = %d", mode, d, k-runs)
		}
		loop.stats.CacheHits, loop.ns, txn.ns = txn.stats.CacheHits, 0, 0
		if loop != txn {
			t.Errorf("%v: Store64 loop %+v\ncommit %+v", mode, loop, txn)
		}
	}
}

// Only consecutive words of one line merge: a write set storing to line
// A, then B, then A again publishes as three runs, three accesses, and the
// commit charges three units.
func TestPublishRunsAreConsecutiveSameLineWords(t *testing.T) {
	tm, pool, c := newTestTM()
	const a, b = 4096, 8192
	pool.Load64(c, a)
	pool.Load64(c, b) // both resident: every store below is a hit
	before, t0 := c.Stats(), c.Clock()
	mustCommit(t, tm, c, pool, func(tx *Txn) error {
		tx.Store(a, 1)
		tx.Store(a+8, 2)
		tx.Store(b, 3)
		tx.Store(a+16, 4)
		return nil
	})
	d := c.Stats().Sub(before)
	if d.CacheHits != 3 || d.CacheMisses != 0 {
		t.Fatalf("A, A, B, A commit: %d hits and %d misses, want 3 accesses (one per run)", d.CacheHits, d.CacheMisses)
	}
	want := int64(beginCostNS + commitBaseNS + 3*commitPerLineNS + 3*pmem.DefaultTiming().CacheHitStore)
	if ns := c.Clock() - t0; ns != want {
		t.Errorf("A, A, B, A commit cost %d ns, want %d (three units, three store hits)", ns, want)
	}
	for addr, v := range map[uint64]uint64{a: 1, a + 8: 2, b: 3, a + 16: 4} {
		if got := pool.Load64(c, addr); got != v {
			t.Errorf("word %d = %d after the commit, want %d", addr, got, v)
		}
	}
}

// A transactional copy of two lines, or a line load of each, never sees
// half of a commit that publishes both: every committed read finds all 16
// words equal. Two readers copy and a third loads lines.
func TestPublishNeverTornForConcurrentRead(t *testing.T) {
	tm, pool, _ := newTestTM()
	const addr, rounds = 4096, 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := pool.NewCtx()
			defer c.Release()
			for i := 1; i <= rounds; i++ {
				v := uint64(w<<32 | i)
				tm.Run(c, pool, func(tx *Txn) error {
					for off := uint64(0); off < 128; off += 8 {
						tx.Store(addr+off, v)
					}
					return nil
				})
			}
		}(w)
	}
	errs := make(chan string, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := pool.NewCtx()
			defer c.Release()
			var buf [128]byte
			for i := 0; i < rounds; i++ {
				if code, _ := tm.Run(c, pool, func(tx *Txn) error {
					if r < 2 {
						tx.Read(addr, buf[:])
						return nil
					}
					for l := 0; l < 2; l++ {
						for j, w := range tx.LoadLine(addr + uint64(l)*64) {
							binary.LittleEndian.PutUint64(buf[l*64+j*8:], w)
						}
					}
					return nil
				}); code != Committed {
					continue
				}
				first := binary.LittleEndian.Uint64(buf[:])
				for off := 8; off < len(buf); off += 8 {
					if v := binary.LittleEndian.Uint64(buf[off:]); v != first {
						errs <- "a committed read saw half a commit"
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
