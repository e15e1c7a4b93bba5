package core

import (
	"sync/atomic"

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
	// merge is simply abandoned (the scrubber/fsck will quarantine).
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
	if h.ix.cfg.Concurrency != ModeHTM {
		return h.ix.mergeLocked(h, &r)
	}
	ix := h.ix
	var freedSeg uint64
	liveAfter := 0
	mergedDepth := uint(0)
	for attempt := 0; attempt < mergeAttempts; attempt++ {
		code, _ := ix.tm.Run(h.c, ix.pool, func(tx *htm.Txn) error {
			freedSeg = 0
			if tx.LoadVol(&ix.dirGen)&1 == 1 {
				return nil // skip during resizes
			}
			d := ix.dir.Load()
			e := tx.LoadVol(&d.entries[d.index(r.h)])
			if entryLocked(e) {
				return nil
			}
			seg, depth := entrySeg(e), entryDepth(e)
			if depth == 0 {
				return nil
			}
			p := hash.Prefix(r.h, depth)
			buddyBase := (p ^ 1) << (d.depth - depth)
			be := tx.LoadVol(&d.entries[buddyBase])
			if entryLocked(be) || entryDepth(be) != depth {
				return nil
			}
			buddySeg := entrySeg(be)
			lo := p >> 1 << (d.depth - depth + 1)
			n := uint64(1) << (d.depth - depth + 1)
			// Validate every covering entry of both buddies before
			// rewriting them (see the matching check in split).
			for j := uint64(0); j < n; j++ {
				cur := tx.LoadVol(&d.entries[lo+j])
				if entryLocked(cur) || entryDepth(cur) != depth {
					return nil
				}
				if s := entrySeg(cur); s != seg && s != buddySeg {
					return nil
				}
			}
			// Merge carries data: both segments' live entries must fit
			// comfortably in one (the reverse of a split, §III-A).
			m := txMem{tx}
			if ix.sealAddr != 0 && (ix.verifySeal(m, seg) != 0 || ix.verifySeal(m, buddySeg) != 0) {
				// Relayouting a damaged buddy would launder corrupt
				// words under a fresh seal; leave it for scrub/fsck.
				return nil
			}
			live, ok := h.decodeBuddies(m, seg, buddySeg)
			if !ok {
				return nil
			}
			liveAfter, mergedDepth = live.n, depth-1
			img, ok := layoutSegment(live.live())
			if !ok {
				return nil // pathological bucket skew; keep both
			}
			for i, w := range img {
				addr := buddySeg + uint64(i)*8
				if tx.Load(addr) != w {
					tx.Store(addr, w)
				}
			}
			for j := uint64(0); j < n; j++ {
				tx.StoreVol(&d.entries[lo+j], makeEntry(buddySeg, depth-1))
			}
			tx.Store(ix.regAddrOf(seg), 0)
			tx.Store(ix.regAddrOf(buddySeg), makeRegEntry(p>>1, depth-1))
			if ix.sealAddr != 0 {
				tx.Store(ix.sealAddrOf(buddySeg), sealOfImage(&img))
				tx.Store(ix.sealAddrOf(seg), 0)
			}
			freedSeg = seg
			return nil
		})
		switch code {
		case htm.Committed:
			if freedSeg == 0 {
				return false
			}
			h.ah.Free(h.c, freedSeg, SegmentSize)
			ix.segments.Add(-1)
			ix.merges.Add(1)
			h.lane.Inc(obs.CMerges)
			h.lane.Inc(obs.CSegFree)
			ix.reg.Trace(obs.EvMerge, h.c.Clock(), int64(mergedDepth), int64(liveAfter))
			ix.reg.ObserveKeyed(obs.HSegOccupancy, r.h, liveAfter)
			return true
		case htm.Conflict:
			ix.txConflicts.Add(1)
			h.lane.Inc(obs.CHTMConflicts)
		case htm.Capacity:
			ix.txCapacity.Add(1)
			h.lane.Inc(obs.CHTMCapacity)
			return false // covering range too wide; not worth forcing
		case htm.Explicit:
			return false
		}
	}
	return false
}

// decodeBuddies decodes both segments of a buddy pair through m and
// returns their live entries as one list, seg's first; ok=false when
// together they exceed mergeThreshold. The occupied key words alone
// decide that (decodeSegment finds one entry per occupied key word), so a
// declined pair costs its key words and no value word or key record.
func (h *Handle) decodeBuddies(m mem, seg, buddySeg uint64) (live segEntries, ok bool) {
	var kws, bkws [SlotsPerSegment]uint64
	if keyWords(m, seg, &kws)+keyWords(m, buddySeg, &bkws) > mergeThreshold {
		return live, false
	}
	h.decodeSegment(m, seg, &kws, &live)
	h.decodeSegment(m, buddySeg, &bkws, &live)
	return live, true
}

// mergeLocked is the lock-mode merge: it requires the buddy pair to
// fall inside one lock stripe (depth-1 ≥ LockStripeBits), which the
// stripe-covers-whole-segments invariant guarantees for all but the
// shallowest segments — those simply stay unmerged.
func (ix *Index) mergeLocked(h *Handle, r *req) bool {
	stripe := ix.stripeOf(r.h)
	ix.lockStripe(h.c, stripe)
	defer ix.unlockStripe(h.c, stripe)
	d := ix.dir.Load()
	_, e := ix.resolveRaw(r.h)
	seg, depth := entrySeg(e), entryDepth(e)
	if depth == 0 || depth-1 < ix.cfg.LockStripeBits {
		return false
	}
	m := rawMem{ix.pool, h.c}
	p := hash.Prefix(r.h, depth)
	buddyBase := (p ^ 1) << (d.depth - depth)
	be := atomic.LoadUint64(&d.entries[buddyBase])
	if entryDepth(be) != depth {
		return false
	}
	buddySeg := entrySeg(be)
	if ix.sealAddr != 0 && (ix.verifySeal(m, seg) != 0 || ix.verifySeal(m, buddySeg) != 0) {
		return false
	}
	live, ok := h.decodeBuddies(m, seg, buddySeg)
	if !ok {
		return false
	}
	img, ok := layoutSegment(live.live())
	if !ok {
		return false
	}
	for i, w := range img {
		m.store(buddySeg+uint64(i)*8, w)
	}
	lo := p >> 1 << (d.depth - depth + 1)
	n := uint64(1) << (d.depth - depth + 1)
	for j := uint64(0); j < n; j++ {
		atomic.StoreUint64(&d.entries[lo+j], makeEntry(buddySeg, depth-1))
	}
	m.store(ix.regAddrOf(seg), 0)
	m.store(ix.regAddrOf(buddySeg), makeRegEntry(p>>1, depth-1))
	if ix.sealAddr != 0 {
		m.store(ix.sealAddrOf(buddySeg), sealOfImage(&img))
		m.store(ix.sealAddrOf(seg), 0)
	}
	h.ah.Free(h.c, seg, SegmentSize)
	ix.segments.Add(-1)
	ix.merges.Add(1)
	h.lane.Inc(obs.CMerges)
	h.lane.Inc(obs.CSegFree)
	ix.reg.Trace(obs.EvMerge, h.c.Clock(), int64(depth-1), int64(live.n))
	ix.reg.ObserveKeyed(obs.HSegOccupancy, r.h, live.n)
	return true
}
