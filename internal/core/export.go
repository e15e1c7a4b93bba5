package core

import (
	"fmt"

	"spash/internal/pmem"
)

// Sealed-segment export: the read side of replication shipping
// (internal/repl). A primary ships whole hash ranges — a fresh
// replica's full sync, or the authoritative copy of a range a peer
// quarantined — and the export contract is the same trust rule the
// salvage path enforces: a segment's records leave the device only
// after the segment verifies against its seal, so a replica can never
// be seeded from silently rotten data.

// rangeIntersects reports whether the hash ranges (p1,d1) and (p2,d2)
// — each "all hashes whose top d bits equal p" — overlap. Extendible
// ranges are nested or disjoint: they overlap iff the shallower prefix
// is a prefix of the deeper one.
func rangeIntersects(p1 uint64, d1 uint, p2 uint64, d2 uint) bool {
	if d1 > d2 {
		return p1>>(d1-d2) == p2
	}
	return p2>>(d2-d1) == p1
}

// ExportRange streams every live key-value pair whose hash prefix at
// the given depth equals prefix, in segment order. Every contributing
// segment is verified (seal, routing, record CRCs) before any of its
// records are decoded; a segment that fails verification aborts the
// export with a *CorruptionError — damaged ranges must be repaired
// (Quarantine) before they can ship, never forwarded. depth 0 exports
// the whole index. The index must be quiescent (same contract as
// Fsck); fn's slices are only valid during the callback.
func (ix *Index) ExportRange(c *pmem.Ctx, prefix uint64, depth uint, fn func(key, val []byte) error) (err error) {
	m := rawMem{ix.pool, c}
	buf := new([SegmentSize]byte)
	ix.eachRegistered(c, func(seg, p uint64, d uint, poisoned bool) bool {
		switch {
		case poisoned:
			err = &CorruptionError{Seg: seg, Bucket: -1,
				Cause: fmt.Errorf("registry frame unreadable: %w", pmem.ErrPoisoned)}
		case !rangeIntersects(p, d, prefix, depth):
		default:
			if f := ix.verifySegment(c, seg, p, d); f != nil {
				err = &CorruptionError{Seg: seg, Bucket: firstBadBucket(f.BadBuckets),
					Cause: fmt.Errorf("refusing to export unverified segment: %s", f.Cause)}
			} else {
				err = exportSegment(m, buf, seg, prefix, depth, fn)
			}
		}
		return err == nil
	})
	return err
}

// exportSegment decodes one seal-verified segment's live slots and
// feeds the pairs inside the requested range to fn. Verification has
// already proven every occupied slot decodable and CRC-clean, so a
// residual record fault here (a racing writer would violate the
// quiescence contract) surfaces as a CorruptionError rather than a
// panic: the slot verdict reads records tolerantly.
func exportSegment(m mem, buf *[SegmentSize]byte, seg uint64, prefix uint64, depth uint, fn func(key, val []byte) error) error {
	snap := loadSegment(m, seg, buf)
	for s := 0; s < SlotsPerSegment; s++ {
		if !keyOccupied(snap[s*2]) {
			continue
		}
		v := judgeSlot(m, &snap, s, prefix, depth)
		switch {
		case !v.decodes || v.routes && !v.valueOK:
			return &CorruptionError{Seg: seg, Bucket: bucketOf(s), Cause: ErrRecordChecksum}
		case !v.routes:
			continue
		}
		if err := fn(v.key, loadValue(m, snap[s*2+1]&^hintMask, nil)); err != nil {
			return err
		}
	}
	return nil
}
