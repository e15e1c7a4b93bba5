package core

import (
	"fmt"
	"slices"
	"testing"

	"spash/internal/pmem"
)

// buddyBench is two free-standing segments and 32 keys, one per slot of
// the pair, each with its inline key word and its out-of-line key word
// (whose record is written once): a merge probe over any occupancy can be
// laid out by storing slot words.
type buddyBench struct {
	h             *Handle
	seg, buddy    uint64
	inline, outOf [2 * SlotsPerSegment]uint64
}

func newBuddyBench(t testing.TB) *buddyBench {
	t.Helper()
	_, h, _ := hintIndex(t)
	b := &buddyBench{h: h}
	for _, p := range []*uint64{&b.seg, &b.buddy} {
		addr, _, err := h.ah.Alloc(h.c, SegmentSize)
		if err != nil {
			t.Fatal(err)
		}
		*p = addr
	}
	for i := range b.inline {
		r := makeReq(k64(uint64(i)))
		b.inline[i] = makeKeyWord(true, r.fp, r.kpay)
		key := []byte(fmt.Sprintf("buddy-bench-key-%02d", i))
		rec, err := h.allocRecord(key)
		if err != nil {
			t.Fatal(err)
		}
		b.outOf[i] = makeKeyWord(false, makeReq(key).fp, rec)
	}
	return b
}

// layout fills the pair: slot s of segment i is occupied when bit s of
// occ[i] is set, with an inline key when bit s of inl[i] is set too.
func (b *buddyBench) layout(occ, inl [2]uint16) {
	for i, seg := range []uint64{b.seg, b.buddy} {
		for s := 0; s < SlotsPerSegment; s++ {
			kw, k := uint64(0), i*SlotsPerSegment+s
			if occ[i]>>s&1 == 1 {
				kw = b.outOf[k]
				if inl[i]>>s&1 == 1 {
					kw = b.inline[k]
				}
			}
			b.h.ix.pool.Store64(b.h.c, slotAddr(seg, s), kw)
			b.h.ix.pool.Store64(b.h.c, slotAddr(seg, s)+8, makeValueWord(true, uint64(k)))
		}
	}
}

// checkDecline lays out the pair and checks decodeBuddies against a full
// decode of both segments: the same decision, the same entries when it
// merges, and nothing read but the 8 bucket lines when it declines.
func (b *buddyBench) checkDecline(t *testing.T, occ, inl [2]uint16) {
	t.Helper()
	b.layout(occ, inl)
	h := b.h
	m := rawMem{h.ix.pool, h.c}
	var each [2]segEntries
	for i, seg := range []uint64{b.seg, b.buddy} {
		var img [SegmentSize / 8]uint64
		loadLines(m, seg, &img)
		h.decodeSegment(&img, &each[i])
	}
	want := append(each[0].live(), each[1].live()...)
	before := h.c.Stats()
	live, ok := h.decodeBuddies(m, b.seg, b.buddy)
	d := h.c.Stats().Sub(before)
	if wantOK := len(want) <= mergeThreshold; ok != wantOK {
		t.Fatalf("occupancy %016b/%016b: decodeBuddies ok=%v, the full decode (%d entries) says %v", occ[0], occ[1], ok, len(want), wantOK)
	}
	if !ok {
		if got := d.CacheHits + d.CacheMisses; got != 2*BucketsPerSegment {
			t.Fatalf("occupancy %016b/%016b: a declined probe made %d accesses, want one per bucket line (%d)", occ[0], occ[1], got, 2*BucketsPerSegment)
		}
		return
	}
	if !slices.Equal(live.live(), want) {
		t.Fatalf("occupancy %016b/%016b: merged entries\n %+v\nthe full decode has\n %+v", occ[0], occ[1], live.live(), want)
	}
}

// occupancy returns a mask with the first n of a segment's slots set,
// rotated so that the pair's occupied slots fall in different buckets.
func occupancy(n, rot int) uint16 {
	m := uint32(1)<<n - 1
	m = m<<(rot%SlotsPerSegment) | m>>(SlotsPerSegment-rot%SlotsPerSegment)
	return uint16(m)
}

// Every pair of occupancies from 0 to 16 entries, with all-inline,
// all-out-of-line and mixed keys: the occupancy decision is the decode's.
func TestMergeDeclineMatchesDecode(t *testing.T) {
	b := newBuddyBench(t)
	for na := 0; na <= SlotsPerSegment; na++ {
		for nb := 0; nb <= SlotsPerSegment; nb++ {
			occ := [2]uint16{occupancy(na, na), occupancy(nb, 3*nb)}
			for _, inl := range [][2]uint16{{0, 0}, {0xFFFF, 0xFFFF}, {0x5555, 0x0F0F}} {
				b.checkDecline(t, occ, inl)
			}
		}
	}
}

// FuzzMergeDecline is TestMergeDeclineMatchesDecode over arbitrary
// occupancies and key placements.
func FuzzMergeDecline(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint16(0xFFFF), uint16(0xFFFF), uint16(0), uint16(0xFFFF))
	f.Add(uint16(0x00FF), uint16(0), uint16(0x000F), uint16(0))
	f.Add(uint16(0x00FF), uint16(0x0001), uint16(0x0F0F), uint16(0))
	f.Add(uint16(0x1111), uint16(0x8888), uint16(0x1010), uint16(0x8080))
	b := newBuddyBench(f)
	f.Fuzz(func(t *testing.T, occA, occB, inlA, inlB uint16) {
		b.checkDecline(t, [2]uint16{occA, occB}, [2]uint16{inlA, inlB})
	})
}

// A merge probe that declines reads the two segments' lines and no key
// record, in the transactional merge and in the lock-mode merge alike.
// Each probe starts from an empty cache (an eADR power cycle keeps every
// word), so every line it reads is a miss.
func TestDeclinedMergeReadsNoKeyRecord(t *testing.T) {
	for _, cfg := range []Config{
		{InitialDepth: 2},
		{InitialDepth: 2, Concurrency: ModeWriteLock, LockStripeBits: 1},
	} {
		t.Run(cfg.Concurrency.String(), func(t *testing.T) {
			pool, ix, h := openFresh(t, pmem.EADR, cfg)
			key := func(i int) []byte { return []byte(fmt.Sprintf("merge-probe-key-%06d", i)) }
			const n = 600
			for i := 0; i < n; i++ {
				if err := h.Insert(key(i), k64(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			const pairLines = 2 * SegmentSize / pmem.CachelineSize
			declined := 0
			for i := 0; i < n; i++ {
				pool.Crash()
				before := h.c.Stats()
				if h.TryMerge(key(i)) {
					continue
				}
				switch lines := h.c.Stats().Sub(before).CachelineReads; lines {
				case 0: // no buddy at the same depth: nothing was probed
				case pairLines:
					declined++
				default:
					t.Fatalf("declined probe for key %d read %d lines, want the pair's %d", i, lines, pairLines)
				}
			}
			t.Logf("%d of %d probes read a buddy pair and declined", declined, n)
			if declined < n/2 {
				t.Fatalf("%d of %d probes read a buddy pair and declined; the test needs most of them", declined, n)
			}
			if err := ix.CheckInvariants(h.c); err != nil {
				t.Fatal(err)
			}
		})
	}
}
