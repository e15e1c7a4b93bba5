package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"spash/internal/alloc"
	"spash/internal/pmem"
)

// integrityKey returns a deterministic key: even i inline (8 bytes),
// odd i out-of-line (longer than a slot payload).
func integrityKey(i int) []byte {
	if i%2 == 0 {
		return k64(uint64(i) | 1<<40)
	}
	return []byte(fmt.Sprintf("integrity-key-%06d-out-of-line", i))
}

func integrityVal(i int) []byte {
	if i%3 == 0 {
		return k64(uint64(i) ^ 0xABCD)
	}
	return bytes.Repeat([]byte{byte(i)}, 40+i%50)
}

func fillIntegrity(t *testing.T, h *Handle, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.Insert(integrityKey(i), integrityVal(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

// checkSurvivors verifies the post-repair oracle: every key is either
// intact (right value), reported lost, or hash-covered by a repair
// range. Silent wrong values and unexcused misses fail.
func checkSurvivors(t *testing.T, h *Handle, n int, rep *FsckReport) (lostSeen int) {
	t.Helper()
	lost := map[string]bool{}
	for _, k := range rep.LostKeys() {
		lost[string(k)] = true
	}
	covered := func(hh uint64) bool {
		for i := range rep.Repairs {
			if rep.Repairs[i].Covers(hh) {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		key := integrityKey(i)
		got, found, err := h.Search(key, nil)
		if err != nil {
			t.Fatalf("post-repair Search(%d): %v", i, err)
		}
		if found {
			if !bytes.Equal(got, integrityVal(i)) {
				t.Fatalf("key %d: silent wrong value after repair", i)
			}
			continue
		}
		lostSeen++
		if !lost[string(key)] && !covered(hashKey(key)) {
			t.Fatalf("key %d: missing but neither reported lost nor in a repaired range", i)
		}
	}
	return lostSeen
}

func TestChecksumsRoundTripAndRecoverAdoption(t *testing.T) {
	pool := pmem.New(pmem.Config{PoolSize: 32 << 20, CacheSize: 1 << 20})
	c := pool.NewCtx()
	al, err := alloc.New(c, pool)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(c, pool, al, Config{InitialDepth: 2, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	h := ix.NewHandle(c)
	const n = 3000
	fillIntegrity(t, h, n)
	for i := 0; i < n; i += 7 {
		if _, err := h.Update(integrityKey(i), integrityVal(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 11 {
		if _, err := h.Delete(integrityKey(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := h.Insert(integrityKey(i), integrityVal(i)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	if err := ix.CheckInvariants(c); err != nil {
		t.Fatalf("invariants with checksums on: %v", err)
	}
	if rep, err := h.Fsck(false); err != nil || rep.ExitCode() != 0 {
		t.Fatalf("fsck of healthy pool: err=%v report=%+v", err, rep)
	}

	// Recover must adopt the persistent checksum setting even when the
	// passed Config says off.
	pool.Crash()
	c2 := pool.NewCtx()
	ix2, _, err := Recover(c2, pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ix2.cfg.Checksums || ix2.sealAddr == 0 {
		t.Fatal("Recover did not adopt persistent checksum setting")
	}
	h2 := ix2.NewHandle(c2)
	for i := 0; i < n; i++ {
		got, found, err := h2.Search(integrityKey(i), nil)
		if err != nil || !found || !bytes.Equal(got, integrityVal(i)) {
			t.Fatalf("key %d after recover: found=%v err=%v", i, found, err)
		}
	}
	if err := ix2.CheckInvariants(c2); err != nil {
		t.Fatalf("invariants after recover: %v", err)
	}
}

func TestSealDetectsBitFlipAndFsckRepairs(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: true})
	c := h.c
	const n = 2000
	fillIntegrity(t, h, n)

	// Flip one bit in a word of the segment owning key 42.
	victim := integrityKey(42)
	r := makeReq(victim)
	_, e := ix.resolveRaw(r.h)
	seg := entrySeg(e)
	rng := rand.New(rand.NewSource(7))
	addr := seg + uint64(rng.Intn(SegmentSize/8))*8
	ix.pool.Store64(c, addr, ix.pool.Load64(c, addr)^(1<<uint(rng.Intn(64))))

	if err := ix.CheckInvariants(c); err == nil {
		t.Fatal("CheckInvariants missed the flipped segment")
	}

	// Every operation touching the segment must fail typed, not lie.
	_, _, err := h.Search(victim, nil)
	if err == nil {
		t.Fatal("Search on corrupt segment returned no error")
	}
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Search error %v does not match ErrCorrupted", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Seg != seg {
		t.Fatalf("errors.As gave %+v, want seg %#x", ce, seg)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("cause of %v is not ErrChecksum", err)
	}
	if err := h.Insert(victim, []byte("x")); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Insert on corrupt segment: %v", err)
	}

	rep, err := h.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExitCode() != 1 {
		t.Fatalf("fsck exit code %d, want 1 (repaired); report %+v", rep.ExitCode(), rep)
	}
	if len(rep.Repairs) == 0 || rep.Repairs[0].Seg != seg {
		t.Fatalf("fsck repaired %+v, want seg %#x", rep.Repairs, seg)
	}
	if err := ix.CheckInvariants(c); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
	lost := checkSurvivors(t, h, n, rep)
	if lost > SlotsPerSegment {
		t.Fatalf("%d keys lost from a single-segment flip", lost)
	}
	// The index must be fully writable again.
	for i := 0; i < n; i += 13 {
		if err := h.Insert(integrityKey(i), integrityVal(i)); err != nil {
			t.Fatalf("post-repair insert: %v", err)
		}
	}
}

// TestPoisonedSegmentQuarantine poisons the segment holding a key: the
// read path refuses it with a typed error, and Fsck(true) finds it,
// rebuilds it and heals the line, with seals on and off (without seals
// the poisoned read itself is the evidence).
func TestPoisonedSegmentQuarantine(t *testing.T) {
	for _, checksums := range []bool{true, false} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: checksums})
			c := h.c
			const n = 1500
			fillIntegrity(t, h, n)

			victim := integrityKey(99)
			r := makeReq(victim)
			_, e := ix.resolveRaw(r.h)
			seg := entrySeg(e)
			ix.pool.PoisonLine(seg)

			_, _, err := h.Search(victim, nil)
			if !errors.Is(err, ErrCorrupted) || !errors.Is(err, pmem.ErrPoisoned) {
				t.Fatalf("Search on poisoned segment: %v", err)
			}

			rep, ferr := h.Fsck(true)
			if ferr != nil {
				t.Fatal(ferr)
			}
			if rep.ExitCode() != 1 {
				t.Fatalf("fsck exit %d, report %+v", rep.ExitCode(), rep)
			}
			if len(rep.Faults) != 1 || !rep.Faults[0].Poisoned {
				t.Fatalf("faults: %+v", rep.Faults)
			}
			if len(rep.Repairs) != 1 || rep.Repairs[0].Salvaged != 0 {
				t.Fatalf("poisoned frame must salvage nothing: %+v", rep.Repairs)
			}
			if ix.pool.PoisonedLines() != 0 {
				t.Fatalf("%d poisoned lines survive repair (rebuild must heal)", ix.pool.PoisonedLines())
			}
			if err := ix.CheckInvariants(c); err != nil {
				t.Fatalf("invariants after poison repair: %v", err)
			}
			checkSurvivors(t, h, n, rep)
		})
	}
}

func TestFsckWithoutRepairReportsExit2(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: true})
	fillIntegrity(t, h, 800)
	segs := ix.SegmentAddrs(h.c)
	ix.pool.PoisonLine(segs[len(segs)/2])
	rep, err := h.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExitCode() != 2 || rep.Clean() {
		t.Fatalf("verify-only fsck of damaged pool: exit %d", rep.ExitCode())
	}
}

func TestCheckPlacementFlagsMisroutedKey(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 4})
	c := h.c
	fillIntegrity(t, h, 500)
	if got := ix.CheckPlacement(c); got != 0 {
		t.Fatalf("healthy pool reports %d misplaced", got)
	}
	// Plant an occupied inline key in a free slot of a segment that
	// does not own it: checksum-clean, CheckInvariants-visible, and —
	// crucially — invisible to any value-comparison oracle.
	key := k64(0xDEAD_BEEF)
	r := makeReq(key)
	_, e := ix.resolveRaw(r.h)
	home := entrySeg(e)
	var alien uint64
	for _, s := range ix.SegmentAddrs(c) {
		if s != home {
			alien = s
			break
		}
	}
	planted := false
	for s := 0; s < SlotsPerSegment && !planted; s++ {
		if !keyOccupied(ix.pool.Load64(c, slotAddr(alien, s))) {
			ix.pool.Store64(c, slotAddr(alien, s), makeKeyWord(true, r.fp, r.kpay))
			planted = true
		}
	}
	if !planted {
		t.Skip("no free slot in alien segment")
	}
	if got := ix.CheckPlacement(c); got != 1 {
		t.Fatalf("CheckPlacement = %d, want 1", got)
	}
}

func TestCorruptionErrorMatching(t *testing.T) {
	ce := &CorruptionError{Seg: 0x100, Bucket: 2, Cause: ErrChecksum}
	if !errors.Is(ce, ErrCorrupted) || !errors.Is(ce, ErrChecksum) {
		t.Fatal("CorruptionError Is-chain broken")
	}
	var out *CorruptionError
	if !errors.As(fmt.Errorf("wrapped: %w", ce), &out) || out.Bucket != 2 {
		t.Fatal("CorruptionError As-chain broken")
	}
	ae := pmem.AccessError{Addr: 0x40, Size: 256, Poisoned: true}
	if !errors.Is(error(ae), pmem.ErrPoisoned) {
		t.Fatal("poisoned AccessError must match ErrPoisoned")
	}
	if errors.Is(error(pmem.AccessError{Addr: 1}), pmem.ErrPoisoned) {
		t.Fatal("plain AccessError must not match ErrPoisoned")
	}
}

func TestSealMaintainedAcrossSplitsAndMerges(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 1, Checksums: true})
	c := h.c
	const n = 4000
	fillIntegrity(t, h, n) // forces many splits
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			if _, err := h.Delete(integrityKey(i)); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
		}
	}
	for i := 0; i < 64; i++ {
		h.TryMerge(integrityKey(i)) // exercise merge seal stores
	}
	if err := ix.CheckInvariants(c); err != nil {
		t.Fatalf("seals out of step after splits/merges: %v", err)
	}
	if rep, err := h.Fsck(false); err != nil || !rep.Clean() {
		t.Fatalf("fsck after churn: err=%v faults=%+v", err, rep.Faults)
	}
}

// TestPoisonedRegistryFrame poisons the XPLine holding live segments'
// registry words and pins each registry reader's response to it: Fsck
// records every unreadable word as an unrepairable fault, ExportRange
// refuses with a typed poison error, CheckPlacement skips the frame,
// and Recover fails with an error instead of a panic.
func TestPoisonedRegistryFrame(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: true})
	c := h.c
	fillIntegrity(t, h, 1500)
	segs := ix.SegmentAddrs(c)
	ix.pool.PoisonLine(ix.regAddrOf(segs[len(segs)/2]))

	rep, err := h.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	const words = pmem.XPLineSize / 8
	if rep.ExitCode() != 2 || len(rep.Faults) != words || len(rep.Failed) != words {
		t.Fatalf("fsck: exit %d, %d faults, %d failed; want 2, %d, %d",
			rep.ExitCode(), len(rep.Faults), len(rep.Failed), words, words)
	}
	for _, f := range rep.Faults {
		if !f.Poisoned || f.Cause != "registry frame unreadable (poisoned)" {
			t.Fatalf("fault %+v", f)
		}
	}
	if rep.Segments != len(segs)-words {
		t.Fatalf("fsck walked %d segments, want %d readable", rep.Segments, len(segs)-words)
	}

	err = ix.ExportRange(c, 0, 0, func(_, _ []byte) error { return nil })
	var ce *CorruptionError
	if !errors.As(err, &ce) || !errors.Is(err, pmem.ErrPoisoned) {
		t.Fatalf("ExportRange over a poisoned registry: %v", err)
	}

	if got := ix.CheckPlacement(c); got != 0 {
		t.Fatalf("CheckPlacement = %d, want 0", got)
	}

	ix.pool.Crash()
	if _, _, err := Recover(ix.pool.NewCtx(), ix.pool, Config{}); err == nil {
		t.Fatal("Recover accepted a pool whose registry is unreadable")
	}
}

// TestCheckInvariantsPoisonWrapsErrPoisoned guards the %w fix in
// CheckInvariants' AccessError backstop: the wrapped scan error must
// still match pmem.ErrPoisoned through errors.Is, so fsck callers can
// distinguish damaged media from structural corruption.
func TestCheckInvariantsPoisonWrapsErrPoisoned(t *testing.T) {
	ix, h := newTestIndex(t, Config{InitialDepth: 2, Checksums: true})
	c := h.c
	fillIntegrity(t, h, 500)

	victim := integrityKey(42)
	r := makeReq(victim)
	_, e := ix.resolveRaw(r.h)
	ix.pool.PoisonLine(entrySeg(e))

	err := ix.CheckInvariants(c)
	if err == nil {
		t.Fatal("CheckInvariants did not report the poisoned segment")
	}
	if !errors.Is(err, pmem.ErrPoisoned) {
		t.Fatalf("CheckInvariants error lost its cause (want errors.Is ErrPoisoned): %v", err)
	}
}

// A split whose segment turns out poisoned fails typed on every path —
// the transaction, its covering-entry-lock fallback and the lock modes'
// split — and the fallback leaves no covering entry locked behind it.
func TestSplitOfPoisonedSegmentFailsTyped(t *testing.T) {
	for _, cfg := range updateModes {
		t.Run(cfg.Concurrency.String(), func(t *testing.T) {
			ix, h := newTestIndex(t, cfg)
			key := k64(7)
			if err := h.Insert(key, key); err != nil {
				t.Fatal(err)
			}
			hh := makeReq(key).h
			_, e := ix.resolveRaw(hh)
			ix.pool.PoisonLine(entrySeg(e))
			type path struct {
				name  string
				split func() error
			}
			paths := []path{
				{"split", func() error { return ix.split(h, hh) }},
				{"splitFallback", func() error { return ix.splitFallback(h, hh) }},
			}
			if ix.stripes != nil {
				ix.doubleLocked(h.c, ix.dir.Load())
				paths = []path{{"splitLocked", func() error { return h.splitLocked(hh) }}}
			}
			for _, p := range paths {
				if err := p.split(); !errors.Is(err, pmem.ErrPoisoned) {
					t.Fatalf("%s of a poisoned segment: %v, want a poisoned CorruptionError", p.name, err)
				}
				if _, e := ix.resolveRaw(hh); entryLocked(e) {
					t.Fatalf("%s left the poisoned segment fallback-locked", p.name)
				}
			}
		})
	}
}

// A seal lane is the low 16 bits of the CRC32C of its bucket's bytes:
// the word-wise fold in bucketCRC computes what crc32.Checksum does over
// the encoded image.
func TestBucketCRCIsCRC32COfTheBucketBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		var ws [SlotsPerBucket * 2]uint64
		var b [pmem.CachelineSize]byte
		for j := range ws {
			if i > 0 { // the first bucket stays empty
				ws[j] = rng.Uint64()
			}
			binary.LittleEndian.PutUint64(b[j*8:], ws[j])
		}
		if got, want := bucketCRC(ws[:]), uint64(crc32.Checksum(b[:], crcTable)&0xFFFF); got != want {
			t.Fatalf("bucket %x: lane %#x, want %#x", ws, got, want)
		}
	}
}

// A full pool has no free frame to rebuild a damaged segment into, so
// fsck rebuilds it in place when checksums are on: the repair reports
// the same frame, the invariants hold again and every key survives or is
// excused. Without checksums a rebuild in place cut short by an ADR crash
// would leave a torn frame nothing detects, so fsck reports the segment
// as failed and leaves it as it was.
func TestFullPoolFsckRepairsInPlace(t *testing.T) {
	for _, sums := range []bool{true, false} {
		pool := pmem.New(pmem.Config{PoolSize: 2 << 20, CacheSize: 64 << 10})
		c := pool.NewCtx()
		al, err := alloc.New(c, pool)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Open(c, pool, al, Config{InitialDepth: 2, Checksums: sums})
		if err != nil {
			t.Fatal(err)
		}
		h := ix.NewHandle(c)
		n := 0
		for ; ; n++ {
			if err := h.Insert(integrityKey(n), integrityVal(n)); err != nil {
				if !errors.Is(err, alloc.ErrNoSpace) {
					t.Fatal(err)
				}
				break
			}
		}
		for {
			if _, _, err := h.ah.Alloc(c, SegmentSize); err != nil {
				break // not even a segment's frame is left
			}
		}
		// Flip a fingerprint bit of the segment's first entry: the
		// structural check sees it with or without checksums.
		r := makeReq(integrityKey(41))
		_, e := ix.resolveRaw(r.h)
		seg := entrySeg(e)
		s := 0
		for !keyOccupied(pool.Load64(c, slotAddr(seg, s))) {
			s++
		}
		addr := slotAddr(seg, s)
		damaged := pool.Load64(c, addr) ^ 1<<kFPShift
		pool.Store64(c, addr, damaged)

		rep, err := h.Fsck(true)
		if err != nil {
			t.Fatal(err)
		}
		if !sums {
			if rep.ExitCode() != 2 || len(rep.Repairs) != 0 || len(rep.Failed) != 1 || rep.Failed[0].Seg != seg ||
				!strings.Contains(rep.Failed[0].Cause, "repair failed") {
				t.Fatalf("fsck of a full pool without checksums: exit %d, repairs %+v, failed %+v; want the segment failed, unrepaired",
					rep.ExitCode(), rep.Repairs, rep.Failed)
			}
			if got := pool.Load64(c, addr); got != damaged {
				t.Fatalf("the failed segment's damaged slot was rewritten: %#x, want %#x", got, damaged)
			}
			continue
		}
		if rep.ExitCode() != 1 || len(rep.Repairs) != 1 {
			t.Fatalf("fsck of a full pool: exit %d, repairs %+v, failed %+v", rep.ExitCode(), rep.Repairs, rep.Failed)
		}
		if q := rep.Repairs[0]; q.Seg != seg || q.NewSeg != seg {
			t.Fatalf("repaired %#x into %#x, want %#x rebuilt in place", q.Seg, q.NewSeg, seg)
		}
		if err := ix.CheckInvariants(c); err != nil {
			t.Fatalf("invariants after the repair: %v", err)
		}
		if lost := checkSurvivors(t, h, n, rep); lost > SlotsPerSegment {
			t.Fatalf("%d keys lost from a single-segment flip", lost)
		}
	}
}
