package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"spash/internal/hash"
	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// errMaxDepth is returned when a segment cannot split further; with a
// 44-bit directory limit this indicates pathological hash collisions.
var errMaxDepth = errors.New("core: maximum directory depth reached")

// splitConflictBudget is the number of transactional split attempts
// before falling back to locking every covering directory entry.
const splitConflictBudget = 32

// splitOccSalt decorrelates the observation stripes of the two halves
// of one split when recording their post-split occupancies.
const splitOccSalt = 0x9E3779B97F4A7C15

// split divides the segment holding hash hh into two fine-grained
// segments (§III-A, Fig 3): entries whose next prefix bit is 1 move to
// a freshly allocated segment; the covering directory entries are
// repointed and the persistent registry updated, all in one HTM
// transaction. Returns nil when the split succeeded or when another
// thread changed the segment first (the caller re-runs its operation
// either way).
func (ix *Index) split(h *Handle, hh uint64) (err error) {
	c := h.c
	conflicts := 0
	// Split reads the segment and its key records raw during
	// preparation; a poisoned XPLine must surface as a typed error, not
	// a panic (the caller is outside the guarded operation body).
	var curSeg uint64
	defer poisonAsCorruption(&curSeg, &err)
	for {
		_, e := ix.resolveRaw(hh)
		if entryLocked(e) {
			ix.pool.CheckLive()
			runtime.Gosched()
			continue
		}
		seg, depth := entrySeg(e), entryDepth(e)
		curSeg = seg
		if depth >= maxDepth {
			return errMaxDepth
		}

		// Determine the authoritative global depth; during a doubling
		// help copy the partitions covering this segment first
		// (collaborative staged doubling, §IV-B), then operate on the
		// new directory.
		var ds *doublingState
		var g uint
		if atomic.LoadUint64(&ix.dirGen)&1 == 1 {
			ds = ix.doubling.Load()
			if ds == nil {
				continue
			}
			if ds.halving {
				ix.waitResize()
				continue
			}
			g = ds.new.depth
			if depth < ds.old.depth {
				lo := hash.Prefix(hh, depth) << (ds.old.depth - depth)
				hi := lo + 1<<(ds.old.depth-depth)
				for p := ds.partOf(lo); p <= ds.partOf(hi-1); p++ {
					ix.copyStage(c, ds, p, true)
				}
			} else {
				// depth == old depth: the single covering partition.
				ix.copyStage(c, ds, ds.partOf(ds.old.index(hh)), true)
			}
		} else {
			g = ix.dir.Load().depth
		}
		if depth == g {
			ix.triggerDouble(c)
			continue
		}

		// Snapshot and relayout the segment (preparation phase; the
		// transaction validates the snapshot).
		snap := h.snapshot(seg)
		for i := range snap {
			snap[i] = ix.pool.Load64(c, seg+uint64(i)*8)
		}
		prefix := hash.Prefix(hh, depth)
		imgA, imgB, liveA, liveB, err := h.splitImages(depth)
		if err != nil {
			return err
		}
		newSeg, _, err := h.ah.Alloc(c, SegmentSize)
		if err != nil {
			return err
		}
		ix.hintSplitTargets(seg, newSeg)
		for i, w := range imgB {
			//spash:allow pmstore -- populates the freshly allocated segment image; the directory pointer to it is published only inside the transaction below
			ix.pool.Store64(c, newSeg+uint64(i)*8, w)
		}

		code, terr := ix.tm.Run(c, ix.pool, func(tx *htm.Txn) error {
			ents, g2, rerr := ix.splitView(tx, hh, depth)
			if rerr != nil {
				return rerr
			}
			base := prefix << (g2 - depth)
			n := uint64(1) << (g2 - depth)
			// Validate every covering entry, not just the first: a
			// fallback holder may have locked any one of them, and
			// overwriting a locked entry would let the holder's
			// unlock restore a stale pre-split pointer.
			for j := uint64(0); j < n; j++ {
				cur := tx.LoadVol(&ents[base+j])
				if entryLocked(cur) {
					return errLocked
				}
				if entrySeg(cur) != seg || entryDepth(cur) != depth {
					return errSegMoved
				}
			}
			for i := range snap {
				if tx.Load(seg+uint64(i)*8) != snap[i] {
					return errSegMoved
				}
			}
			for i, w := range imgA {
				if w != snap[i] {
					tx.Store(seg+uint64(i)*8, w)
				}
			}
			for j := uint64(0); j < n/2; j++ {
				tx.StoreVol(&ents[base+j], makeEntry(seg, depth+1))
				tx.StoreVol(&ents[base+n/2+j], makeEntry(newSeg, depth+1))
			}
			tx.Store(ix.regAddrOf(seg), makeRegEntry(prefix<<1, depth+1))
			tx.Store(ix.regAddrOf(newSeg), makeRegEntry(prefix<<1|1, depth+1))
			if ix.sealAddr != 0 {
				tx.Store(ix.sealAddrOf(seg), sealOfImage(&imgA))
				tx.Store(ix.sealAddrOf(newSeg), sealOfImage(&imgB))
			}
			return nil
		})
		switch code {
		case htm.Committed:
			// DP2: both halves are cold multi-cacheline writes; one
			// sequential flush each writes them back as single
			// XPLines instead of scattered evictions ("the split
			// operations are bandwidth-efficient due to the XPLine
			// granularity", §VI-B).
			ix.pool.Flush(c, seg, SegmentSize)
			ix.pool.Flush(c, newSeg, SegmentSize)
			ix.splits.Add(1)
			ix.segments.Add(1)
			h.lane.Inc(obs.CSplits)
			h.lane.Inc(obs.CSegAlloc)
			ix.reg.Trace(obs.EvSplit, c.Clock(), int64(depth+1), int64(liveA+liveB))
			ix.reg.ObserveKeyed(obs.HSegOccupancy, hh, liveA)
			ix.reg.ObserveKeyed(obs.HSegOccupancy, hh^splitOccSalt, liveB)
			return nil
		case htm.Conflict:
			ix.txConflicts.Add(1)
			h.lane.Inc(obs.CHTMConflicts)
			h.ah.Free(c, newSeg, SegmentSize)
			conflicts++
			if conflicts > splitConflictBudget {
				return ix.splitFallback(h, hh)
			}
		case htm.Capacity:
			ix.txCapacity.Add(1)
			h.lane.Inc(obs.CHTMCapacity)
			h.ah.Free(c, newSeg, SegmentSize)
			return ix.splitFallback(h, hh)
		case htm.Explicit:
			h.ah.Free(c, newSeg, SegmentSize)
			if re, ok := terr.(retryError); ok {
				switch re {
				case errSegMoved:
					// Another thread restructured the segment; the
					// caller's retry will split again if still needed.
					return nil
				case errLocked, errResizing:
					ix.pool.CheckLive()
					runtime.Gosched()
				}
				continue
			}
			return terr
		}
	}
}

// snapshot returns the handle's segment snapshot, about to hold seg's
// words.
func (h *Handle) snapshot(seg uint64) *[SegmentSize / 8]uint64 {
	h.snap.base = seg
	return &h.snap.words
}

// hintKeyRecords asks the host for every out-of-line key record the
// snapshot names, all at once; the decode then reads them one after
// another. The words may be anything — the transaction has not validated
// them yet — which Pool.Hint tolerates.
func (ix *Index) hintKeyRecords(snap *[SegmentSize / 8]uint64) {
	for s := 0; s < SlotsPerSegment; s++ {
		if kw := snap[s*2]; keyOccupied(kw) && !keyIsInline(kw) {
			ix.pool.Hint(wordPayload(kw))
		}
	}
}

// hintSplitTargets asks the host for what a split of seg into seg and
// newSeg writes next and has not touched yet: the new segment's lines and
// both halves' registry (and seal) words.
func (ix *Index) hintSplitTargets(seg, newSeg uint64) {
	for off := uint64(0); off < SegmentSize; off += pmem.CachelineSize {
		ix.tm.Hint(ix.pool, newSeg+off)
	}
	ix.tm.Hint(ix.pool, ix.regAddrOf(seg))
	ix.tm.Hint(ix.pool, ix.regAddrOf(newSeg))
	if ix.sealAddr != 0 {
		ix.tm.Hint(ix.pool, ix.sealAddrOf(seg))
		ix.tm.Hint(ix.pool, ix.sealAddrOf(newSeg))
	}
}

// splitImages decodes the handle's snapshot and lays out the two child
// images: entries whose bit (63-depth) of the hash is 0 stay, 1 move.
// liveA/liveB are the live-entry counts of the two halves (the
// post-split occupancy observable).
func (h *Handle) splitImages(depth uint) (imgA, imgB [SegmentSize / 8]uint64, liveA, liveB int, err error) {
	var all, stay, move segEntries
	var kws [SlotsPerSegment]uint64
	h.ix.hintKeyRecords(&h.snap.words)
	keyWords(&h.snap, h.snap.base, &kws)
	h.decodeSegment(&h.snap, h.snap.base, &kws, &all)
	for _, en := range all.live() {
		if en.h>>(63-depth)&1 == 1 {
			move.add(en)
		} else {
			stay.add(en)
		}
	}
	liveA, liveB = stay.n, move.n
	var ok bool
	if imgA, ok = layoutSegment(stay.live()); !ok {
		return imgA, imgB, liveA, liveB, fmt.Errorf("core: split relayout failed (stay half)")
	}
	if imgB, ok = layoutSegment(move.live()); !ok {
		return imgA, imgB, liveA, liveB, fmt.Errorf("core: split relayout failed (move half)")
	}
	return imgA, imgB, liveA, liveB, nil
}

// splitView returns the authoritative directory slice and depth for a
// split's transaction, validating (in the read set) that every
// partition covering the segment has been copied when a doubling is in
// flight.
func (ix *Index) splitView(tx *htm.Txn, hh uint64, depth uint) ([]uint64, uint, error) {
	gen := tx.LoadVol(&ix.dirGen)
	if gen&1 == 0 {
		d := ix.dir.Load()
		if depth >= d.depth {
			return nil, 0, errSegMoved
		}
		return d.entries, d.depth, nil
	}
	ds := ix.doubling.Load()
	if ds == nil || ds.halving {
		return nil, 0, errResizing
	}
	if depth >= ds.new.depth {
		return nil, 0, errSegMoved
	}
	var lo, hi uint64
	if depth <= ds.old.depth {
		lo = hash.Prefix(hh, depth) << (ds.old.depth - depth)
		hi = lo + 1<<(ds.old.depth-depth)
	} else {
		lo = ds.old.index(hh)
		hi = lo + 1
	}
	for p := ds.partOf(lo); p <= ds.partOf(hi-1); p++ {
		if tx.LoadVol(ds.partDonePtr(p)) != 1 {
			return nil, 0, errSegMoved
		}
	}
	return ds.new.entries, ds.new.depth, nil
}

// splitFallback performs the split non-transactionally after taking
// the fallback lock on every covering directory entry. Used when the
// transactional path keeps aborting (e.g. a very wide covering range
// hitting the HTM capacity limit).
func (ix *Index) splitFallback(h *Handle, hh uint64) error {
	c := h.c
	ix.fallbacks.Add(1)
	h.lane.Inc(obs.CSplitFallbacks)
	ix.reg.Trace(obs.EvSplitFallback, c.Clock(), int64(hh>>48), 0)
	for {
		if atomic.LoadUint64(&ix.dirGen)&1 == 1 {
			ix.waitResize()
			continue
		}
		d := ix.dir.Load()
		_, e := ix.resolveRaw(hh)
		if entryLocked(e) {
			ix.pool.CheckLive()
			runtime.Gosched()
			continue
		}
		seg, depth := entrySeg(e), entryDepth(e)
		if depth >= maxDepth {
			return errMaxDepth
		}
		if depth == d.depth {
			ix.triggerDouble(c)
			continue
		}
		prefix := hash.Prefix(hh, depth)
		base := prefix << (d.depth - depth)
		n := uint64(1) << (d.depth - depth)

		// Lock every covering entry (ascending order, CAS with bump so
		// optimistic transactions conflict).
		locked := uint64(0)
		ok := true
		for j := uint64(0); j < n; j++ {
			ptr := &d.entries[base+j]
			cur := atomic.LoadUint64(ptr)
			if entryLocked(cur) || entrySeg(cur) != seg || entryDepth(cur) != depth ||
				!ix.tm.BumpCASVol(c, ptr, cur, cur|entryLock) {
				ok = false
				break
			}
			locked++
		}
		if !ok || ix.dir.Load() != d {
			for j := uint64(0); j < locked; j++ {
				ptr := &d.entries[base+j]
				ix.tm.BumpStoreVol(c, ptr, entryUnlock(atomic.LoadUint64(ptr)))
			}
			ix.pool.CheckLive()
			runtime.Gosched()
			continue
		}

		// Exclusive: perform the split irrevocably (stripe locks keep
		// half-published optimistic commits out of the snapshot and
		// make our writes conflicting-visible).
		err := ix.tm.Irrevocable(c, ix.pool, func(it *htm.ITxn) error {
			m := iMem{it}
			snap := h.snapshot(seg)
			for i := range snap {
				snap[i] = m.load(seg + uint64(i)*8)
			}
			imgA, imgB, liveA, liveB, ierr := h.splitImages(depth)
			if ierr != nil {
				return ierr
			}
			newSeg, _, ierr := h.ah.Alloc(c, SegmentSize)
			if ierr != nil {
				return ierr
			}
			ix.hintSplitTargets(seg, newSeg)
			for i, w := range imgB {
				ix.pool.Store64(c, newSeg+uint64(i)*8, w)
			}
			for i, w := range imgA {
				if w != snap[i] {
					m.store(seg+uint64(i)*8, w)
				}
			}
			m.store(ix.regAddrOf(seg), makeRegEntry(prefix<<1, depth+1))
			m.store(ix.regAddrOf(newSeg), makeRegEntry(prefix<<1|1, depth+1))
			if ix.sealAddr != 0 {
				m.store(ix.sealAddrOf(seg), sealOfImage(&imgA))
				m.store(ix.sealAddrOf(newSeg), sealOfImage(&imgB))
			}
			for j := uint64(0); j < n/2; j++ {
				it.StoreVol(&d.entries[base+j], makeEntry(seg, depth+1))
				it.StoreVol(&d.entries[base+n/2+j], makeEntry(newSeg, depth+1))
			}
			ix.splits.Add(1)
			ix.segments.Add(1)
			h.lane.Inc(obs.CSplits)
			h.lane.Inc(obs.CSegAlloc)
			ix.reg.Trace(obs.EvSplit, c.Clock(), int64(depth+1), int64(liveA+liveB))
			ix.reg.ObserveKeyed(obs.HSegOccupancy, hh, liveA)
			ix.reg.ObserveKeyed(obs.HSegOccupancy, hh^splitOccSalt, liveB)
			return nil
		})
		if err != nil {
			// Unlock with original values on failure.
			for j := uint64(0); j < n; j++ {
				ptr := &d.entries[base+j]
				ix.tm.BumpStoreVol(c, ptr, entryUnlock(atomic.LoadUint64(ptr)))
			}
			return err
		}
		return nil
	}
}
