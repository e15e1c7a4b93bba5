package core

import (
	"encoding/binary"

	"spash/internal/htm"
	"spash/internal/pmem"
)

// DumpInfo is a structural snapshot of the index, for introspection
// and debugging tools (cmd/spash-dump). Collecting it scans every
// segment; the index should be quiescent.
type DumpInfo struct {
	GlobalDepth uint
	// DepthHistogram[d] is the number of segments with local depth d.
	DepthHistogram []int
	// OccupancyHistogram[k] is the number of segments holding exactly
	// k entries (0..SlotsPerSegment).
	OccupancyHistogram []int
	// OverflowEntries counts entries living outside their main bucket
	// (each carries a hint; the paper reports ~9% of searches touch
	// an overflow bucket).
	OverflowEntries int64
	// KeyRecords/ValueRecords count out-of-line keys and values.
	KeyRecords, ValueRecords int64
	// PoisonedSegments counts segments that could not be scanned
	// because their media is poisoned (uncorrectable); their entries
	// are missing from every other statistic.
	PoisonedSegments int
}

// Dump collects a DumpInfo.
func (ix *Index) Dump(c *pmem.Ctx) DumpInfo {
	d := ix.dir.Load()
	info := DumpInfo{
		GlobalDepth:        d.depth,
		DepthHistogram:     make([]int, d.depth+1),
		OccupancyHistogram: make([]int, SlotsPerSegment+1),
	}
	m := rawMem{ix.pool, c}
	seen := make(map[uint64]bool)
	for _, e := range d.entries {
		seg := entrySeg(e)
		if seen[seg] {
			continue
		}
		seen[seg] = true
		depth := entryDepth(e)
		if int(depth) < len(info.DepthHistogram) {
			info.DepthHistogram[depth]++
		}
		if !dumpSegment(m, seg, &info) {
			info.PoisonedSegments++
		}
	}
	return info
}

// dumpSegment accumulates one segment's statistics, reporting false
// (and counting nothing) when its media is poisoned.
func dumpSegment(m mem, seg uint64, info *DumpInfo) (ok bool) {
	var img [SegmentSize / 8]uint64
	occ := 0
	if tolerate(poisonOnly, func() { occ = loadLines(m, seg, &img) }) != nil {
		return false
	}
	info.OccupancyHistogram[occ]++
	for s := range SlotsPerSegment {
		kw, vw := img[2*s], img[2*s+1]
		if keyOccupied(kw) && !keyIsInline(kw) {
			info.KeyRecords++
		}
		if keyOccupied(kw) && !valueIsInline(vw) {
			info.ValueRecords++
		}
		// Overflow entries: occupied slots referenced by a hint.
		if hintValid(vw) && keyOccupied(img[2*hintIdx(vw)]) {
			info.OverflowEntries++
		}
	}
	return true
}

// ForEach visits every live entry once, calling fn with the key and
// value bytes (valid only during the call). Each segment is read in
// its own transaction, so the visit of one segment is atomic, but the
// iteration as a whole is not a snapshot — concurrent writers may be
// seen or missed, like iterating any live hash table. Returns early if
// fn returns false.
func (ix *Index) ForEach(h *Handle, fn func(key, val []byte) bool) error {
	if ae := tolerate(poisonOnly, func() { ix.forEach(h, fn) }); ae != nil {
		return &CorruptionError{Seg: ae.Addr &^ (SegmentSize - 1), Bucket: -1, Cause: *ae}
	}
	return nil
}

// forEach is ForEach's walk; poisoned media unwinds it to ForEach's
// guard.
func (ix *Index) forEach(h *Handle, fn func(key, val []byte) bool) {
	d := ix.dir.Load()
	seen := make(map[uint64]bool)
	var kb [8]byte
	for _, e := range d.entries {
		seg := entrySeg(e)
		if seen[seg] {
			continue
		}
		seen[seg] = true
		type kvPair struct{ k, v []byte }
		var batch []kvPair
		var img [SegmentSize / 8]uint64
		for {
			code, _ := ix.tm.Run(h.c, ix.pool, func(tx *htm.Txn) error {
				batch = batch[:0]
				m := txMem{tx}
				loadLines(m, seg, &img)
				for s := range SlotsPerSegment {
					kw, vw := img[2*s], img[2*s+1]
					if !keyOccupied(kw) {
						continue
					}
					var key []byte
					if keyIsInline(kw) {
						binary.LittleEndian.PutUint64(kb[:], wordPayload(kw))
						key = append([]byte(nil), kb[:]...)
					} else {
						key = readRecord(m, wordPayload(kw), nil)
					}
					batch = append(batch, kvPair{key, loadValue(m, vw, nil)})
				}
				return nil
			})
			if code == htm.Committed {
				break
			}
			// Conflict/resize: retry this segment. If the directory
			// changed structurally, stale segments abort their reads
			// and re-resolve below.
			if ix.dir.Load() != d {
				// Segment may have been merged away; skip if its
				// registry entry is gone.
				if ix.pool.Load64(h.c, ix.regAddrOf(seg))&regValid == 0 {
					batch = nil
					break
				}
			}
		}
		for _, kv := range batch {
			if !fn(kv.k, kv.v) {
				return
			}
		}
	}
}
