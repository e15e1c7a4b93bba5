package pmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testPool(t *testing.T, mode Mode) *Pool {
	t.Helper()
	cfg := Config{
		PoolSize:      16 << 20,
		Mode:          mode,
		CacheSize:     256 << 10,
		CacheWays:     8,
		XPBufferLines: 64,
	}
	return New(cfg)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Store64(c, 64, 0xDEADBEEFCAFEBABE)
	if got := p.Load64(c, 64); got != 0xDEADBEEFCAFEBABE {
		t.Fatalf("Load64 = %#x", got)
	}
	if got := p.Load64(c, 72); got != 0 {
		t.Fatalf("untouched word = %#x, want 0", got)
	}
}

func TestReadWriteBytesRoundTrip(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	f := func(seed int64, off uint16, n uint16) bool {
		addr := uint64(off) + 8 // avoid nil page
		size := int(n)%512 + 1
		src := make([]byte, size)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(src)
		p.Write(c, addr, src)
		dst := make([]byte, size)
		p.Read(c, addr, dst)
		for i := range src {
			if src[i] != dst[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedWriteDoesNotClobberNeighbours(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Store64(c, 64, 0x1111111111111111)
	p.Store64(c, 72, 0x2222222222222222)
	p.Write(c, 67, []byte{0xAA, 0xBB, 0xCC}) // straddles bytes 3..5 of word 64
	if got := p.Load64(c, 64); got != 0x1111CCBBAA111111 {
		t.Fatalf("word = %#x", got)
	}
	if got := p.Load64(c, 72); got != 0x2222222222222222 {
		t.Fatalf("neighbour clobbered: %#x", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Load64(c, p.Size())
}

func TestUnalignedLoad64Panics(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Load64(c, 65)
}

func TestCacheHitMissAccounting(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Store64(c, 4096, 1) // miss (write-allocate)
	s := c.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Fatalf("after cold store: %+v", s)
	}
	p.Load64(c, 4096+8) // same line: hit
	s = c.Stats()
	if s.CacheHits != 1 {
		t.Fatalf("after warm load: %+v", s)
	}
	if s.CachelineReads != 1 {
		t.Fatalf("line fills = %d, want 1", s.CachelineReads)
	}
}

func TestEvictionWritesBackDirtyLines(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	// Dirty far more lines than the cache holds.
	lines := int(p.cfg.CacheSize/CachelineSize) * 4
	for i := 0; i < lines; i++ {
		p.Store64(c, uint64(i)*CachelineSize, uint64(i))
	}
	s := c.Stats()
	if s.Evictions == 0 || s.CachelineWrites == 0 {
		t.Fatalf("no evictions recorded: %+v", s)
	}
	// Every line is eventually either resident-dirty or written back.
	if int(s.CachelineWrites)+p.DirtyLines() != lines {
		t.Fatalf("writes(%d) + dirty(%d) != %d", s.CachelineWrites, p.DirtyLines(), lines)
	}
}

func TestFlushWritesBackOnceAndCleans(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Store64(c, 128, 7)
	p.Flush(c, 128, 8)
	s := c.Stats()
	if s.CachelineWrites != 1 || s.Flushes != 1 {
		t.Fatalf("after flush: %+v", s)
	}
	// Second flush of the now-clean line writes nothing.
	p.Flush(c, 128, 8)
	s = c.Stats()
	if s.CachelineWrites != 1 {
		t.Fatalf("clean flush wrote back: %+v", s)
	}
	if p.DirtyLines() != 0 {
		t.Fatalf("dirty lines = %d", p.DirtyLines())
	}
}

func TestFenceCosts(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Fence(c)
	idle := c.Clock()
	c.ResetClock()
	p.Store64(c, 64, 1)
	p.Flush(c, 64, 8)
	after := c.Clock()
	p.Fence(c)
	if drain := c.Clock() - after; drain <= idle {
		t.Fatalf("drain fence (%d) not more expensive than idle fence (%d)", drain, idle)
	}
}

// Sequential flush of the four cachelines of one XPLine must coalesce
// into a single media XPLine write.
func TestXPBufferCoalescesSequentialFlush(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	base := uint64(XPLineSize) * 10
	for l := uint64(0); l < 4; l++ {
		p.Store64(c, base+l*CachelineSize, l)
	}
	p.Flush(c, base, XPLineSize)
	p.Fence(c)
	s := c.Stats()
	if s.CachelineWrites != 4 {
		t.Fatalf("cacheline writes = %d, want 4", s.CachelineWrites)
	}
	if s.XPLineWrites != 1 {
		t.Fatalf("XPLine writes = %d, want 1 (coalesced)", s.XPLineWrites)
	}
}

// Writing back lines of many different XPLines in an interleaved order
// must cost one media XPLine access each (no coalescing).
func TestXPBufferRandomWritebacksAmplify(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	const chunks = 512
	// Flush line k of every chunk before line k+1 of any chunk, so
	// sibling lines are separated by >> XPBuffer capacity.
	for l := uint64(0); l < 4; l++ {
		for i := uint64(0); i < chunks; i++ {
			addr := (i+1)*XPLineSize + l*CachelineSize
			p.Store64(c, addr, l)
			p.Flush(c, addr, 8)
		}
	}
	s := c.Stats()
	if s.XPLineWrites < chunks*3 {
		t.Fatalf("XPLine writes = %d, want near %d (amplified)", s.XPLineWrites, chunks*4)
	}
}

func TestNTStoreBypassesCacheAndIsDurable(t *testing.T) {
	p := testPool(t, ADR)
	c := p.NewCtx()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	p.NTStore(c, 4096, buf)
	if p.DirtyLines() != 0 {
		t.Fatalf("ntstore dirtied the cache")
	}
	p.Crash()
	got := make([]byte, 64)
	p.Read(c, 4096, got)
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d = %d after crash, want %d", i, got[i], buf[i])
		}
	}
}

func TestADRCrashRollsBackUnflushedStores(t *testing.T) {
	p := testPool(t, ADR)
	c := p.NewCtx()
	p.Store64(c, 64, 1)
	p.Flush(c, 64, 8)
	p.Fence(c)
	p.Store64(c, 64, 2) // dirty again, never flushed
	p.Store64(c, 4096, 3)
	lost := p.Crash()
	if lost != 2 {
		t.Fatalf("lost lines = %d, want 2", lost)
	}
	if got := p.Load64(c, 64); got != 1 {
		t.Fatalf("flushed-then-redirtied word = %d, want rollback to 1", got)
	}
	if got := p.Load64(c, 4096); got != 0 {
		t.Fatalf("never-flushed word = %d, want 0", got)
	}
}

func TestEADRCrashKeepsUnflushedStores(t *testing.T) {
	p := testPool(t, EADR)
	c := p.NewCtx()
	p.Store64(c, 64, 42)
	if lost := p.Crash(); lost != 0 {
		t.Fatalf("eADR crash lost %d lines", lost)
	}
	if got := p.Load64(c, 64); got != 42 {
		t.Fatalf("word = %d after eADR crash, want 42", got)
	}
}

// Under ADR, a flushed line that is then evicted and re-read must not
// be rolled back (its media image is current).
func TestADREvictedLinesSurvive(t *testing.T) {
	p := testPool(t, ADR)
	c := p.NewCtx()
	lines := int(p.cfg.CacheSize/CachelineSize) * 4
	for i := 0; i < lines; i++ {
		p.Store64(c, uint64(i)*CachelineSize, uint64(i)+1)
	}
	p.Crash()
	// Evicted lines keep their values; only still-dirty ones rolled back.
	survived := 0
	for i := 0; i < lines; i++ {
		if p.Load64(c, uint64(i)*CachelineSize) == uint64(i)+1 {
			survived++
		}
	}
	if survived == 0 || survived == lines {
		t.Fatalf("survived = %d of %d, want a strict subset (evicted lines durable)", survived, lines)
	}
}

func TestPrefetchOverlapsLatency(t *testing.T) {
	p := testPool(t, EADR)
	miss := DefaultTiming().CacheMissLoad

	// Cold loads back-to-back: full miss latency each.
	c1 := p.NewCtx()
	p.Load64(c1, 0*XPLineSize)
	p.Load64(c1, 100*XPLineSize)
	serial := c1.Clock()

	// Prefetch both, do some work, then load: latencies overlap.
	c2 := p.NewCtx()
	p.Prefetch(c2, 200*XPLineSize)
	p.Prefetch(c2, 300*XPLineSize)
	p.Load64(c2, 200*XPLineSize)
	p.Load64(c2, 300*XPLineSize)
	pipelined := c2.Clock()

	if pipelined >= serial {
		t.Fatalf("pipelined clock %d >= serial %d", pipelined, serial)
	}
	if pipelined < miss {
		t.Fatalf("pipelined clock %d below one miss latency %d", pipelined, miss)
	}
}

func TestStatsAggregation(t *testing.T) {
	p := testPool(t, EADR)
	c1 := p.NewCtx()
	c2 := p.NewCtx()
	p.Store64(c1, 64, 1)
	p.Store64(c2, 4096, 1)
	if s := p.Stats(); s.CacheMisses != 2 {
		t.Fatalf("live aggregation: %+v", s)
	}
	c1.Release()
	if s := p.Stats(); s.CacheMisses != 2 {
		t.Fatalf("after release: %+v", s)
	}
	c2.Release()
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{CacheHits: 5, XPLineWrites: 3}
	b := Stats{CacheHits: 2, XPLineWrites: 1}
	d := a.Sub(b)
	if d.CacheHits != 3 || d.XPLineWrites != 2 {
		t.Fatalf("Sub: %+v", d)
	}
	if s := d.Add(b); s != a {
		t.Fatalf("Add: %+v", s)
	}
	if a.MediaWriteBytes() != 3*XPLineSize || a.MediaReadBytes() != 0 {
		t.Fatalf("media bytes: %d/%d", a.MediaReadBytes(), a.MediaWriteBytes())
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	p := testPool(t, EADR)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			c := p.NewCtx()
			defer c.Release()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				addr := (rng.Uint64() % (p.Size() / 8)) * 8
				if addr == 0 {
					addr = 8
				}
				if i%3 == 0 {
					p.Store64(c, addr, uint64(i))
				} else {
					p.Load64(c, addr)
				}
				if i%64 == 0 {
					p.Flush(c, addr, 8)
					p.Fence(c)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
