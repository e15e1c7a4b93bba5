package core

import (
	"spash/internal/hash"
	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// mergeAttempts bounds transactional merge retries; merging is
// opportunistic, so contention simply cancels it.
const mergeAttempts = 4

// mergeThreshold is the maximum combined entry count for which two
// buddy segments are merged back into one (half a segment, leaving
// slack for subsequent inserts).
const mergeThreshold = SlotsPerSegment / 2

// TryMerge merges the segment responsible for key and its buddy segment
// into one when their combined live entries are at most mergeThreshold,
// undoing a split (§III-A: "segment merging is the reverse process of
// segment splitting"). Delete calls it on a 1-in-16 hash-bit sample of
// deletes; it may also be called explicitly after bulk deletes. Returns
// whether a merge happened.
func (h *Handle) TryMerge(key []byte) (merged bool) {
	h.c.BeginOp()
	defer h.c.EndOp()
	// Merging decodes both buddies' key records; on poisoned media the
	// merge is simply abandoned (fsck's repair will quarantine).
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(pmem.AccessError); ok && ae.Poisoned {
				merged = false
				return
			}
			panic(r)
		}
	}()
	r := makeReq(key)
	ix := h.ix
	var freed uint64
	if ix.stripes != nil {
		freed = h.mergeLocked(r.h)
	} else {
		freed = h.mergeTx(r.h)
	}
	if freed == 0 {
		return false
	}
	h.ah.Free(h.c, freed, SegmentSize)
	ix.segments.Add(-1)
	h.lane.Inc(obs.CMerges)
	return true
}

// mergeTx runs mergeBody in an HTM transaction, giving up after
// mergeAttempts conflicts or at any other abort.
func (h *Handle) mergeTx(hh uint64) (freed uint64) {
	ix := h.ix
	for attempt := 0; attempt < mergeAttempts; attempt++ {
		code, _ := ix.tm.Run(h.c, ix.pool, func(tx *htm.Txn) error {
			freed = h.mergeBody(txMem{tx}, hh)
			return nil
		})
		switch code {
		case htm.Committed:
			return freed
		case htm.Conflict:
			continue
		}
		// Any other abort (capacity: the covering range is too wide)
		// is not worth forcing.
		return 0
	}
	return 0
}

// mergeLocked runs mergeBody under hh's stripe lock. mergeBody declines
// any pair shallower than the stripes, so the lock covers both buddies.
func (h *Handle) mergeLocked(hh uint64) (freed uint64) {
	s := h.ix.stripeOf(hh)
	h.ix.stripes.lock(h.c, s)
	defer h.ix.stripes.unlock(h.c, s)
	return h.mergeBody(&h.raw, hh)
}

// mergeBody merges hh's segment into its buddy through s when together
// they hold at most mergeThreshold live entries. It declines (freed = 0)
// during a resize, on a locked or moved entry, below the stripes, on a
// damaged seal, and when the survivors do not lay out in one segment.
// Otherwise it rewrites the buddy with the survivors, storing only the
// words that change, repoints every covering entry of the pair at it, and
// reports the freed segment.
func (h *Handle) mergeBody(s section, hh uint64) (freed uint64) {
	ix := h.ix
	if s.loadVol(&ix.dirGen)&1 == 1 {
		return 0 // skip during resizes
	}
	d := ix.dir.Load()
	e := s.loadVol(&d.entries[d.index(hh)])
	seg, depth := entrySeg(e), entryDepth(e)
	if entryLocked(e) || depth <= ix.stripeBits {
		return 0
	}
	p := hash.Prefix(hh, depth)
	be := s.loadVol(&d.entries[(p^1)<<(d.depth-depth)])
	if entryLocked(be) || entryDepth(be) != depth {
		return 0
	}
	buddySeg := entrySeg(be)
	lo := p >> 1 << (d.depth - depth + 1)
	n := uint64(1) << (d.depth - depth + 1)
	// Validate every covering entry of both buddies before rewriting
	// them (see the matching check in split).
	for j := uint64(0); j < n; j++ {
		cur := s.loadVol(&d.entries[lo+j])
		if entryLocked(cur) || entryDepth(cur) != depth {
			return 0
		}
		if cs := entrySeg(cur); cs != seg && cs != buddySeg {
			return 0
		}
	}
	// Merge carries data: both segments' live entries must fit
	// comfortably in one (the reverse of a split, §III-A).
	if ix.sealAddr != 0 && (ix.verifySeal(s, seg, &h.segBuf) != 0 || ix.verifySeal(s, buddySeg, &h.segBuf) != 0) {
		// Relayouting a damaged buddy would launder corrupt words
		// under a fresh seal; leave it for fsck.
		return 0
	}
	entries, ok := h.decodeBuddies(s, seg, buddySeg)
	if !ok {
		return 0
	}
	img, ok := layoutSegment(entries.live())
	if !ok {
		return 0 // pathological bucket skew; keep both
	}
	for i, w := range img {
		if addr := buddySeg + uint64(i)*8; s.load(addr) != w {
			s.store(addr, w)
		}
	}
	for j := uint64(0); j < n; j++ {
		s.storeVol(&d.entries[lo+j], makeEntry(buddySeg, depth-1))
	}
	s.store(ix.regAddrOf(seg), 0)
	s.store(ix.regAddrOf(buddySeg), makeRegEntry(p>>1, depth-1))
	if ix.sealAddr != 0 {
		s.store(ix.sealAddrOf(buddySeg), sealOfImage(&img))
		s.store(ix.sealAddrOf(seg), 0)
	}
	return seg
}

// decodeBuddies decodes both segments of a buddy pair through m and
// returns their live entries as one list, seg's first; ok=false when
// together they exceed mergeThreshold. The occupied key words alone
// decide that (decodeSegment finds one entry per occupied key word), so a
// declined pair costs its eight bucket lines and no key record.
func (h *Handle) decodeBuddies(m mem, seg, buddySeg uint64) (live segEntries, ok bool) {
	var img, bimg [SegmentSize / 8]uint64
	if loadLines(m, seg, &img)+loadLines(m, buddySeg, &bimg) > mergeThreshold {
		return live, false
	}
	h.decodeSegment(&img, &live)
	h.decodeSegment(&bimg, &live)
	return live, true
}
