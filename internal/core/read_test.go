package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"spash/internal/htm"
	"spash/internal/pmem"
)

// Record and segment copies go through mem.read: one access per line,
// charged like the baselines' Pool.Read, in every section flavour.

const (
	copyRec72   = 4096  // a 72 B record: header and payload over two lines
	copyRec1000 = 8192  // a 1000 B record over sixteen lines
	copySeg     = 16384 // a segment image
)

// copyFixture is a pool holding the three copy targets, every line cold
// but the second of each, inside an open operation: equal state for
// every reader under test.
func copyFixture() (*htm.TM, *pmem.Pool, *pmem.Ctx) {
	tm := htm.New(htm.Config{Stripes: 1 << 12})
	pool := pmem.New(pmem.Config{PoolSize: 4 << 20, CacheSize: 64 << 10})
	c := pool.NewCtx()
	rng := rand.New(rand.NewSource(1))
	for _, rec := range []struct {
		addr uint64
		n    int
	}{{copyRec72, 72}, {copyRec1000, 1000}} {
		data := make([]byte, rec.n)
		rng.Read(data)
		writeRecordRaw(c, pool, rec.addr, data)
	}
	for i := uint64(0); i < SegmentSize/8; i++ {
		pool.Store64(c, copySeg+8*i, rng.Uint64())
	}
	pool.Crash() // eADR: the bytes stay, the cache empties
	c.BeginOp()
	for _, a := range []uint64{copyRec72, copyRec1000, copySeg} {
		pool.Load64(c, a+64)
	}
	return tm, pool, c
}

// inSection runs fn in a fresh fixture through one section flavour and
// returns the context's counters after fn and the clock fn alone cost.
func inSection(t *testing.T, flavour string, fn func(m mem, pool *pmem.Pool, c *pmem.Ctx)) (pmem.Stats, int64) {
	t.Helper()
	tm, pool, c := copyFixture()
	var stats pmem.Stats
	var ns int64
	measure := func(m mem) {
		t0 := c.Clock()
		fn(m, pool, c)
		stats, ns = c.Stats(), c.Clock()-t0
	}
	switch flavour {
	case "raw":
		measure(rawMem{pool, c})
	case "tx":
		if code, err := tm.Run(c, pool, func(tx *htm.Txn) error { measure(txMem{tx}); return nil }); code != htm.Committed {
			t.Fatalf("Run = %v, %v", code, err)
		}
	case "irrevocable":
		if err := tm.Irrevocable(c, pool, func(it *htm.ITxn) error { measure(iMem{it}); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return stats, ns
}

var sectionFlavours = []string{"raw", "tx", "irrevocable"}

// From equal cache state every section's copy leaves the counters and
// costs the clock of Pool.Read of the same range.
func TestSectionCopiesChargeLikePoolRead(t *testing.T) {
	for _, rg := range []struct{ addr, n uint64 }{
		{copyRec72 + recordHeader, 72}, {copyRec1000 + recordHeader, 1000}, {copySeg, SegmentSize},
	} {
		want := make([]byte, rg.n)
		wantStats, wantNS := inSection(t, "raw", func(_ mem, pool *pmem.Pool, c *pmem.Ctx) { pool.Read(c, rg.addr, want) })
		for _, f := range sectionFlavours {
			got := make([]byte, rg.n)
			stats, ns := inSection(t, f, func(m mem, _ *pmem.Pool, _ *pmem.Ctx) { m.read(rg.addr, got) })
			if !bytes.Equal(got, want) || stats != wantStats || ns != wantNS {
				t.Errorf("%s copy of [%#x, +%d): %+v, %d ns; Pool.Read: %+v, %d ns (bytes equal: %v)",
					f, rg.addr, rg.n, stats, ns, wantStats, wantNS, bytes.Equal(got, want))
			}
		}
	}
}

// wordLoopRecord is readRecord as a load per payload word: what the
// engine did before copies were charged per line.
func wordLoopRecord(m mem, addr uint64) []byte {
	n := int(m.load(addr) & recordLenMask)
	var dst []byte
	for off := 0; off < n; off += 8 {
		w := m.load(addr + recordHeader + uint64(off))
		for i := 0; i < 8 && off+i < n; i++ {
			dst = append(dst, byte(w>>(8*i)))
		}
	}
	return dst
}

// wordLoopSegment is loadSegment as a load per word.
func wordLoopSegment(m mem, seg uint64) (img [SegmentSize / 8]uint64) {
	for i := range img {
		img[i] = m.load(seg + uint64(i)*8)
	}
	return img
}

// A record or segment copy and the word loop it replaced return the same
// bytes and, in every section flavour, leave the same counters but
// CacheHits: the copy takes one access per line, the loop one per word,
// so it is cheaper on the clock by exactly those hits.
func TestCopiesDifferFromWordLoopsOnlyInHits(t *testing.T) {
	var buf [SegmentSize]byte
	for _, rd := range []struct {
		name       string
		copy, loop func(m mem) string
	}{
		{"72 B record", func(m mem) string { return string(readRecord(m, copyRec72, nil)) },
			func(m mem) string { return string(wordLoopRecord(m, copyRec72)) }},
		{"1000 B record", func(m mem) string { return string(readRecord(m, copyRec1000, nil)) },
			func(m mem) string { return string(wordLoopRecord(m, copyRec1000)) }},
		{"segment", func(m mem) string { return fmt.Sprint(loadSegment(m, copySeg, &buf)) },
			func(m mem) string { return fmt.Sprint(wordLoopSegment(m, copySeg)) }},
	} {
		for _, f := range sectionFlavours {
			var copied, looped string
			cs, cns := inSection(t, f, func(m mem, _ *pmem.Pool, _ *pmem.Ctx) { copied = rd.copy(m) })
			ls, lns := inSection(t, f, func(m mem, _ *pmem.Pool, _ *pmem.Ctx) { looped = rd.loop(m) })
			if copied != looped {
				t.Fatalf("%s, %s: the copy read other bytes than the word loop", rd.name, f)
			}
			hits := ls.CacheHits - cs.CacheHits
			ls.CacheHits = cs.CacheHits
			hitNS := int64(hits) * pmem.DefaultTiming().CacheHitLoad
			if hits == 0 || ls != cs || lns-cns != hitNS {
				t.Errorf("%s, %s: loop %+v, %d ns; copy %+v, %d ns; want only %d fewer hits and %d ns apart",
					rd.name, f, ls, lns, cs, cns, hits, hitNS)
			}
		}
	}
}
