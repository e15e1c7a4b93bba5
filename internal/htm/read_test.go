package htm

import (
	"bytes"
	"fmt"
	"testing"

	"spash/internal/pmem"
)

// readRanges are the shapes a copy takes: a segment image (whole aligned
// lines), a record payload (starting one word into a line, ending inside
// a word) and a long record crossing many lines.
var readRanges = []struct{ addr, n uint64 }{
	{4096, 256},
	{4096 + 8, 72},
	{8192 + 24, 1000},
}

// readFixture is a pool whose bytes [0, 16 KiB) hold a counting pattern,
// with every line cold but the one holding addr+64 (hit), inside an open
// operation: equal state for every reader under test.
func readFixture(addr uint64) (*TM, *pmem.Pool, *pmem.Ctx) {
	tm := New(Config{Stripes: 1 << 12, WriteCapacityWords: 128, ReadCapacityWords: 1024})
	pool := pmem.New(pmem.Config{PoolSize: 4 << 20, CacheSize: 64 << 10})
	c := pool.NewCtx()
	pat := make([]byte, 16<<10)
	for i := range pat {
		pat[i] = byte(i*7 + i>>8)
	}
	pool.Write(c, 0, pat)
	pool.Crash() // eADR: the bytes stay, the cache empties
	c.BeginOp()
	pool.Load64(c, (addr+64)&^7)
	return tm, pool, c
}

// readResult is what one reader leaves behind: the bytes, the context's
// counters after the copy and the clock the copy alone cost.
type readResult struct {
	data  []byte
	stats pmem.Stats
	ns    int64
}

// readWith copies [addr, addr+n) with one of the three readers from a
// fresh fixture.
func readWith(t *testing.T, how string, addr, n uint64) readResult {
	t.Helper()
	tm, pool, c := readFixture(addr)
	dst := make([]byte, n)
	var r readResult
	measure := func(read func()) {
		t0 := c.Clock()
		read()
		r.ns, r.stats = c.Clock()-t0, c.Stats()
	}
	switch how {
	case "pool":
		measure(func() { pool.Read(c, addr, dst) })
	case "txn":
		mustCommit(t, tm, c, pool, func(tx *Txn) error {
			measure(func() { tx.Read(addr, dst) })
			return nil
		})
	case "itxn":
		if err := tm.Irrevocable(c, pool, func(it *ITxn) error {
			measure(func() { it.Read(addr, dst) })
			if want := int((addr+n-1)/64 - addr/64 + 1); len(it.held) != want {
				return fmt.Errorf("holds %d stripes after the copy, want one per line (%d)", len(it.held), want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	case "loads":
		mustCommit(t, tm, c, pool, func(tx *Txn) error {
			measure(func() {
				for w := addr &^ 7; w < addr+n; w += 8 {
					v := tx.Load(w)
					for i := uint64(0); i < 8; i++ {
						if b := w + i; b >= addr && b < addr+n {
							dst[b-addr] = byte(v >> (8 * i))
						}
					}
				}
			})
			return nil
		})
	}
	r.data = dst
	return r
}

// From equal cache state a transactional and an irrevocable copy leave
// the same counters and cost the same clock as Pool.Read of the range.
func TestReadChargesLikePoolRead(t *testing.T) {
	for _, rg := range readRanges {
		want := readWith(t, "pool", rg.addr, rg.n)
		if want.stats.CacheMisses == 0 || want.stats.CacheHits == 0 {
			t.Fatalf("[%d, +%d): fixture gives %+v, want both hits and misses", rg.addr, rg.n, want.stats)
		}
		for _, how := range []string{"txn", "itxn"} {
			got := readWith(t, how, rg.addr, rg.n)
			if !bytes.Equal(got.data, want.data) || got.stats != want.stats || got.ns != want.ns {
				t.Errorf("[%d, +%d) %s: %+v, %d ns; Pool.Read: %+v, %d ns (bytes equal: %v)",
					rg.addr, rg.n, how, got.stats, got.ns, want.stats, want.ns, bytes.Equal(got.data, want.data))
			}
		}
	}
}

// A word-by-word Load loop and a copy of the same range enter the same
// sets in the same order: they differ only in the hits the loop's second
// and later words of each line add, and the clock those cost.
func TestReadDiffersFromLoadLoopOnlyInHits(t *testing.T) {
	for _, rg := range readRanges {
		loop, copied := readWith(t, "loads", rg.addr, rg.n), readWith(t, "txn", rg.addr, rg.n)
		if !bytes.Equal(loop.data, copied.data) {
			t.Fatalf("[%d, +%d): the copy read other bytes than the loop", rg.addr, rg.n)
		}
		words := (rg.addr+rg.n+7)/8 - rg.addr/8
		lines := (rg.addr+rg.n-1)/64 - rg.addr/64 + 1
		if extra := loop.stats.CacheHits - copied.stats.CacheHits; extra != words-lines {
			t.Errorf("[%d, +%d): the loop took %d more hits than the copy, want %d (one per word past each line's first)",
				rg.addr, rg.n, extra, words-lines)
		}
		loop.stats.CacheHits = copied.stats.CacheHits
		if loop.stats != copied.stats || copied.ns >= loop.ns {
			t.Errorf("[%d, +%d): loop %+v, %d ns; copy %+v, %d ns", rg.addr, rg.n, loop.stats, loop.ns, copied.stats, copied.ns)
		}
	}
}

// A copy over words the transaction has stored returns the buffered
// words, whole or in part, and reads no line whose words in the range
// are all buffered.
func TestReadReturnsBufferedWords(t *testing.T) {
	const addr, n = 4096 + 8, 200 // [4104, 4304): lines 4096, 4160, 4224, 4288
	tm, pool, c := readFixture(addr)
	want := make([]byte, n)
	pool.Read(c, addr, want)
	stores := map[uint64]uint64{4104: 0x1111111111111111, 4296: 0x2222222222222222}
	for w := uint64(4160); w < 4224; w += 8 { // all of the second line
		stores[w] = 0x3333333333333333 + w
	}
	for w, v := range stores {
		for i := uint64(0); i < 8; i++ {
			if b := w + i; b >= addr && b < addr+n {
				want[b-addr] = byte(v >> (8 * i))
			}
		}
	}
	got := make([]byte, n)
	code, err := tm.Run(c, pool, func(tx *Txn) error {
		for w, v := range stores {
			tx.Store(w, v)
		}
		before := c.Stats()
		tx.Read(addr, got)
		if d := c.Stats().Sub(before); d.CacheHits+d.CacheMisses != 3 {
			return fmt.Errorf("copy accessed %d lines, want 3 (the fully buffered line is not read)", d.CacheHits+d.CacheMisses)
		}
		return ErrAbort // publish nothing
	})
	if code != Explicit || err != ErrAbort {
		t.Fatalf("Run = %v, %v", code, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("copy over buffered words:\n got %x\nwant %x", got, want)
	}
}

// A commit to any one line of a three-line range between the copy and
// its validation dooms the copying transaction; with no commit there it
// commits.
func TestCommitBetweenCopyAndValidationConflicts(t *testing.T) {
	const addr = 4096
	for line := -1; line < 3; line++ {
		tm, pool, c := readFixture(addr)
		wc := pool.NewCtx()
		code, _ := tm.Run(c, pool, func(tx *Txn) error {
			from := len(tx.rs)
			tx.copyLines(addr, make([]byte, 192))
			if line >= 0 {
				mustCommit(t, tm, wc, pool, func(w *Txn) error {
					w.Store(addr+uint64(line)*64+16, 1)
					return nil
				})
			}
			tx.validateFrom(from)
			return nil
		})
		want := Conflict
		if line < 0 {
			want = Committed
		}
		if code != want {
			t.Errorf("commit to line %d between copy and validation: %v, want %v", line, code, want)
		}
	}
}

// Every word a copy reads counts against ReadCapacityWords: a copy of
// exactly the budget commits, one word more (in the copy or before it)
// aborts with Capacity.
func TestReadCapacity(t *testing.T) {
	tm, pool, c := newTestTM() // ReadCapacityWords: 1024
	for _, tc := range []struct {
		before int // words loaded before the copy
		words  int
		want   Code
	}{
		{0, 1024, Committed},
		{0, 1025, Capacity},
		{1, 1024, Capacity},
	} {
		code, _ := tm.Run(c, pool, func(tx *Txn) error {
			for i := 0; i < tc.before; i++ {
				tx.Load(64)
			}
			tx.Read(1<<20, make([]byte, 8*tc.words))
			return nil
		})
		if code != tc.want {
			t.Errorf("%d words loaded, then a copy of %d: %v, want %v", tc.before, tc.words, code, tc.want)
		}
	}
}

// lineWith reads the cacheline at addr with one of the readers from a
// fresh fixture whose line 4160 is warm: "pool" (Pool.LoadLine), "txn"
// and "itxn" (LoadLine in a transaction and an irrevocable one) or
// "loads" (eight Loads).
func lineWith(t *testing.T, how string, addr uint64) (l pmem.Line, r readResult) {
	t.Helper()
	tm, pool, c := readFixture(4096)
	measure := func(read func()) {
		t0 := c.Clock()
		read()
		r.ns, r.stats = c.Clock()-t0, c.Stats()
	}
	switch how {
	case "pool":
		measure(func() { l = pool.LoadLine(c, addr) })
	case "txn":
		mustCommit(t, tm, c, pool, func(tx *Txn) error {
			measure(func() { l = tx.LoadLine(addr) })
			return nil
		})
	case "itxn":
		if err := tm.Irrevocable(c, pool, func(it *ITxn) error {
			measure(func() { l = it.LoadLine(addr) })
			if len(it.held) != 1 {
				return fmt.Errorf("holds %d stripes after the line load, want 1", len(it.held))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	case "loads":
		mustCommit(t, tm, c, pool, func(tx *Txn) error {
			measure(func() {
				for i := range l {
					l[i] = tx.Load(addr + uint64(i)*8)
				}
			})
			return nil
		})
	}
	return l, r
}

// A line load in a transaction or an irrevocable one leaves the counters
// and costs the clock of Pool.LoadLine, and it reads the words eight
// Loads read with the same counters but CacheHits: seven fewer hits and
// the clock they cost.
func TestLoadLineEqualsEightLoadsButForHits(t *testing.T) {
	for _, addr := range []uint64{4096, 4096 + 64} { // a cold line, a hit
		want, ws := lineWith(t, "pool", addr)
		for _, how := range []string{"txn", "itxn"} {
			if l, r := lineWith(t, how, addr); l != want || r.stats != ws.stats || r.ns != ws.ns {
				t.Errorf("%#x %s: %x, %+v, %d ns; Pool.LoadLine: %x, %+v, %d ns", addr, how, l, r.stats, r.ns, want, ws.stats, ws.ns)
			}
		}
		loop, ls := lineWith(t, "loads", addr)
		_, lr := lineWith(t, "txn", addr)
		if loop != want {
			t.Fatalf("%#x: eight Loads read %x, the line load %x", addr, loop, want)
		}
		hits := ls.stats.CacheHits - lr.stats.CacheHits
		ls.stats.CacheHits = lr.stats.CacheHits
		if hitNS := int64(hits) * pmem.DefaultTiming().CacheHitLoad; hits != 7 || ls.stats != lr.stats || ls.ns-lr.ns != hitNS {
			t.Errorf("%#x: loads %+v, %d ns; line load %+v, %d ns; want only 7 fewer hits and their %d ns",
				addr, ls.stats, ls.ns, lr.stats, lr.ns, hitNS)
		}
	}
}

// A line load over words the transaction has stored returns the buffered
// words and the line's others, with one access.
func TestLoadLineReturnsBufferedWords(t *testing.T) {
	const addr = 4096
	tm, pool, c := readFixture(addr)
	want := pool.LoadLine(c, addr)
	want[2], want[7] = 0x1111, 0x2222
	code, err := tm.Run(c, pool, func(tx *Txn) error {
		tx.Store(addr+16, 0x1111)
		tx.Store(addr+56, 0x2222)
		tx.Store(addr+64, 0x3333) // the next line
		before := c.Stats()
		if got := tx.LoadLine(addr + 8); got != want {
			return fmt.Errorf("line load over buffered words: %x, want %x", got, want)
		}
		if d := c.Stats().Sub(before); d.CacheHits+d.CacheMisses != 1 {
			return fmt.Errorf("line load made %d accesses, want 1", d.CacheHits+d.CacheMisses)
		}
		return ErrAbort // publish nothing
	})
	if code != Explicit || err != ErrAbort {
		t.Fatalf("Run = %v, %v", code, err)
	}
}

// A commit to the line between a line load's pre-check and its re-check
// dooms the loading transaction; a commit to another line, or none, does
// not.
func TestCommitBetweenLoadLineAndRecheckConflicts(t *testing.T) {
	const addr = 4096
	for _, tc := range []struct {
		name   string
		commit int64 // offset of the committed word from addr; -1: none
		want   Code
	}{
		{"no commit", -1, Committed},
		{"a commit to the line", 40, Conflict},
		{"a commit to the next line", 64 + 40, Committed},
	} {
		tm, pool, c := readFixture(addr)
		wc := pool.NewCtx()
		code, _ := tm.Run(c, pool, func(tx *Txn) error {
			_, s, v := tx.readLine(addr)
			if tc.commit >= 0 {
				mustCommit(t, tm, wc, pool, func(w *Txn) error {
					w.Store(addr+uint64(tc.commit), 1)
					return nil
				})
			}
			tx.recheck(s, v)
			return nil
		})
		if code != tc.want {
			t.Errorf("%s between pre-check and re-check: %v, want %v", tc.name, code, tc.want)
		}
	}
}

// A line load counts all eight words against ReadCapacityWords: one that
// ends exactly at the budget commits, one word more aborts with Capacity.
func TestLoadLineCapacity(t *testing.T) {
	tm, pool, c := newTestTM() // ReadCapacityWords: 1024
	for _, tc := range []struct {
		before int // words loaded before the line
		want   Code
	}{
		{1016, Committed},
		{1017, Capacity},
	} {
		code, _ := tm.Run(c, pool, func(tx *Txn) error {
			for i := 0; i < tc.before; i++ {
				tx.Load(64)
			}
			tx.LoadLine(1 << 20)
			return nil
		})
		if code != tc.want {
			t.Errorf("%d words loaded, then a line: %v, want %v", tc.before, code, tc.want)
		}
	}
}
