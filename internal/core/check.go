package core

import (
	"fmt"

	"spash/internal/hash"
	"spash/internal/pmem"
)

// CheckInvariants scans the whole index and verifies its structural
// invariants. It is meant for tests and debugging; the index must be
// quiescent. Checked:
//
//   - directory well-formedness: every segment is referenced by a
//     contiguous, aligned covering range of 2^(G-depth) entries whose
//     position matches the segment's hash prefix;
//   - registry agreement: each segment's persistent registry entry
//     records exactly that prefix and depth (so recovery would rebuild
//     this directory);
//   - slot placement: every occupied entry hashes to this segment and,
//     if it sits outside its main bucket, a hint in the main bucket
//     points at it with the right overflow fingerprint;
//   - hint hygiene: every valid hint points at an occupied overflow
//     slot homed in that bucket;
//   - the live-entry counter equals the number of occupied slots.
func (ix *Index) CheckInvariants(c *pmem.Ctx) (err error) {
	// Backstop: unreadable media or a CRC-failing key record reached by
	// the scan is an invariant violation to report, not a panic.
	defer func() {
		if r := recover(); r != nil {
			rf, ok := r.(recordFault)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("key record %#x fails its CRC", rf.addr)
		}
	}()
	if ae := tolerate(anyAccess, func() { err = ix.checkInvariants(c) }); ae != nil {
		return fmt.Errorf("unreadable media reached by scan: %w", *ae)
	}
	return err
}

// checkInvariants is CheckInvariants' scan; its first failure is the
// result.
func (ix *Index) checkInvariants(c *pmem.Ctx) error {
	d := ix.dir.Load()
	g := d.depth
	m := rawMem{ix.pool, c}
	buf := new([SegmentSize]byte)

	type segInfo struct {
		first uint64
		count uint64
		depth uint
	}
	segs := map[uint64]*segInfo{}
	for i, e := range d.entries {
		seg := entrySeg(e)
		if seg == 0 {
			return fmt.Errorf("directory entry %#x is nil", i)
		}
		si, ok := segs[seg]
		if !ok {
			segs[seg] = &segInfo{first: uint64(i), count: 1, depth: entryDepth(e)}
			continue
		}
		if entryDepth(e) != si.depth {
			return fmt.Errorf("segment %#x has mixed depths in directory", seg)
		}
		if uint64(i) != si.first+si.count {
			return fmt.Errorf("segment %#x covering range not contiguous", seg)
		}
		si.count++
	}

	total := int64(0)
	for seg, si := range segs {
		want := uint64(1) << (g - si.depth)
		if si.count != want {
			return fmt.Errorf("segment %#x covered by %d entries, want %d", seg, si.count, want)
		}
		if si.first%want != 0 {
			return fmt.Errorf("segment %#x covering range misaligned", seg)
		}
		prefix := si.first >> (g - si.depth)
		re := ix.pool.Load64(c, ix.regAddrOf(seg))
		if re&regValid == 0 {
			return fmt.Errorf("segment %#x missing registry entry", seg)
		}
		if regPrefix(re) != prefix || regDepth(re) != si.depth {
			return fmt.Errorf("segment %#x registry (prefix %#x depth %d) disagrees with directory (prefix %#x depth %d)",
				seg, regPrefix(re), regDepth(re), prefix, si.depth)
		}

		if ix.sealAddr != 0 {
			if bad := ix.verifySeal(m, seg, buf); bad != 0 {
				return fmt.Errorf("segment %#x seal mismatch (bucket mask %#x)", seg, bad)
			}
		}
		n, err := ix.checkSegment(c, m, buf, seg, prefix, si.depth)
		if err != nil {
			return err
		}
		total += n
	}
	if got := ix.entries.Load(); got != total {
		if ix.entriesApprox.Swap(false) {
			// An unreadable segment was quarantined online: its
			// pre-loss occupancy was undiscoverable, so the counter is
			// an estimate by design. This quiescent scan just computed
			// the truth — adopt it.
			ix.entries.Store(total)
		} else {
			return fmt.Errorf("entry counter %d != %d occupied slots", got, total)
		}
	}
	return nil
}

// checkSegment validates one segment's slots and hints, returning the
// occupied-slot count, staging the segment's copy in buf.
func (ix *Index) checkSegment(c *pmem.Ctx, m mem, buf *[SegmentSize]byte, seg, prefix uint64, depth uint) (int64, error) {
	snap := loadSegment(m, seg, buf)
	count := int64(0)
	for s := 0; s < SlotsPerSegment; s++ {
		kw := snap[s*2]
		if !keyOccupied(kw) {
			continue
		}
		count++
		v := judgeSlot(m, &snap, s, prefix, depth)
		switch {
		case !v.decodes:
			return 0, fmt.Errorf("key record %#x fails its CRC", wordPayload(kw))
		case !v.routes:
			return 0, fmt.Errorf("segment %#x slot %d: key routes to prefix %#x, segment owns %#x",
				seg, s, hash.Prefix(v.h, depth), prefix)
		case !v.fpOK:
			return 0, fmt.Errorf("segment %#x slot %d: stored fingerprint mismatch", seg, s)
		case v.hintBadFP:
			return 0, fmt.Errorf("segment %#x slot %d: hint fingerprint mismatch", seg, s)
		case !v.hinted:
			return 0, fmt.Errorf("segment %#x slot %d: overflow entry without hint", seg, s)
		}
		// The entry must be locatable through the public read path (run
		// outside an operation, the probe prefetches nothing).
		r := makeReq(v.key)
		if idx, _, _, _, _ := ix.locate(m, c, seg, &r, false); idx != s {
			return 0, fmt.Errorf("segment %#x slot %d: locate found %d", seg, s, idx)
		}
	}
	// Hint hygiene: every valid hint points at a live overflow entry of
	// its bucket.
	for hs := 0; hs < SlotsPerSegment; hs++ {
		hv := snap[hs*2+1]
		if !hintValid(hv) {
			continue
		}
		b, oi := bucketOf(hs), hintIdx(hv)
		if !keyOccupied(snap[oi*2]) {
			return 0, fmt.Errorf("segment %#x bucket %d: dangling hint to slot %d", seg, b, oi)
		}
		if bucketOf(oi) == b {
			return 0, fmt.Errorf("segment %#x bucket %d: hint to non-overflow slot %d", seg, b, oi)
		}
	}
	return count, nil
}
