package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"spash/internal/alloc"
	"spash/internal/hash"
	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// errMaxDepth is returned when a segment cannot split further; with a
// 44-bit directory limit this indicates pathological hash collisions.
// It wraps alloc.ErrNoSpace: the key has no room, as on a full pool.
var errMaxDepth = fmt.Errorf("core: maximum directory depth reached: %w", alloc.ErrNoSpace)

// errRelayout is returned when a half of a split segment does not fit a
// fresh segment, which a consistent snapshot cannot produce.
var errRelayout = errors.New("core: split relayout failed")

// splitConflictBudget is the number of transactional split attempts
// before falling back to locking every covering directory entry.
const splitConflictBudget = 32

// splitPlan is one split in the making: seg (local depth depth, hash
// prefix prefix) splits into imgA, which stays, and imgB, which moves to
// the fresh segment newSeg.
type splitPlan struct {
	seg, newSeg, prefix uint64
	depth               uint
	imgA, imgB          [SegmentSize / 8]uint64
}

// split divides the segment holding hash hh into two fine-grained
// segments (§III-A, Fig 3): entries whose next prefix bit is 1 move to
// a freshly allocated segment; the covering directory entries are
// repointed and the persistent registry updated, all in one HTM
// transaction. Returns nil when the split succeeded or when another
// thread changed the segment first (the caller re-runs its operation
// either way).
func (ix *Index) split(h *Handle, hh uint64) error {
	c := h.c
	conflicts := 0
	for {
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

		// Preparation phase; the transaction validates the snapshot.
		// Until then it is raw: one taken across another worker's
		// commit to the segment may hold an entry twice and not lay
		// out, which is a conflict, not an error (the fallback
		// snapshots under its locks).
		if err := h.prepareSplit(&h.raw, hh, seg, depth); err != nil {
			if !errors.Is(err, errRelayout) {
				return err
			}
			if conflicts++; conflicts > splitConflictBudget {
				return ix.splitFallback(h, hh)
			}
			runtime.Gosched()
			continue
		}
		p, snap := &h.split, &h.snap
		code, terr := ix.tm.Run(c, ix.pool, func(tx *htm.Txn) error {
			ents, g2, rerr := ix.splitView(tx, hh, depth)
			if rerr != nil {
				return rerr
			}
			base := p.prefix << (g2 - depth)
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
			if loadSegment(txMem{tx}, seg, &h.segBuf) != *snap {
				return errSegMoved
			}
			h.commitSplit(txMem{tx}, ents, base, n)
			return nil
		})
		switch code {
		case htm.Committed:
			h.splitDone(hh)
			return nil
		case htm.Conflict:
			h.ah.Free(c, p.newSeg, SegmentSize)
			conflicts++
			if conflicts > splitConflictBudget {
				return ix.splitFallback(h, hh)
			}
		case htm.Capacity:
			h.ah.Free(c, p.newSeg, SegmentSize)
			return ix.splitFallback(h, hh)
		case htm.Explicit:
			h.ah.Free(c, p.newSeg, SegmentSize)
			if re, ok := terr.(retryError); ok {
				switch re {
				case errSegMoved:
					// Another thread restructured the segment; the
					// caller's retry will split again if still needed.
					return nil
				case errLocked:
					ix.waitUnlocked(hh)
				case errResizing:
					ix.waitResizeCtx(c)
				}
				continue
			}
			return terr
		}
	}
}

// splitLocked splits the segment for hh in a lock mode: the caller holds
// the covering stripe lock, so the split runs raw. It asks the caller to
// double the directory (errNeedDouble) when the segment is as deep as it.
func (h *Handle) splitLocked(hh uint64) error {
	ix := h.ix
	d := ix.dir.Load()
	_, e := ix.resolveRaw(hh)
	seg, depth := entrySeg(e), entryDepth(e)
	if depth >= maxDepth {
		return errMaxDepth
	}
	if depth == d.depth {
		return errNeedDouble
	}
	if err := h.prepareSplit(&h.raw, hh, seg, depth); err != nil {
		return err
	}
	h.commitSplit(&h.raw, d.entries, h.split.prefix<<(d.depth-depth), uint64(1)<<(d.depth-depth))
	h.splitDone(hh)
	return nil
}

// prepareSplit plans the split of seg (local depth depth, holding hh)
// into h.split: it snapshots seg through m into h.snap, lays out both
// halves, carves the fresh segment and fills it with the moving half. No
// path reads the fresh segment before the commit repoints the directory
// at it, so it is filled raw. Poisoned media surfaces as a typed error.
func (h *Handle) prepareSplit(m mem, hh, seg uint64, depth uint) (err error) {
	defer poisonAsCorruption(&seg, &err)
	ix, c, p := h.ix, h.c, &h.split
	h.snap = loadSegment(m, seg, &h.segBuf)
	p.seg, p.depth, p.prefix = seg, depth, hash.Prefix(hh, depth)

	// Entries whose bit (63-depth) of the hash is 0 stay, 1 move.
	var all, stay, move segEntries
	ix.hintKeyRecords(&h.snap)
	h.decodeSegment(&h.snap, &all)
	for _, en := range all.live() {
		if en.h>>(63-depth)&1 == 1 {
			move.add(en)
		} else {
			stay.add(en)
		}
	}
	var ok bool
	if p.imgA, ok = layoutSegment(stay.live()); !ok {
		return fmt.Errorf("%w (stay half)", errRelayout)
	}
	if p.imgB, ok = layoutSegment(move.live()); !ok {
		return fmt.Errorf("%w (move half)", errRelayout)
	}
	if p.newSeg, _, err = h.ah.Alloc(c, SegmentSize); err != nil {
		return err
	}
	ix.hintSplitTargets(seg, p.newSeg)
	for i, w := range p.imgB {
		h.raw.store(p.newSeg+uint64(i)*8, w)
	}
	return nil
}

// commitSplit publishes h.split through s: the words of seg that change,
// the covering directory entries ents[base:base+n] (the low half
// repointed at seg, the high half at the fresh segment), and both halves'
// registry words and seals.
func (h *Handle) commitSplit(s section, ents []uint64, base, n uint64) {
	ix, p := h.ix, &h.split
	for i, w := range p.imgA {
		if w != h.snap[i] {
			s.store(p.seg+uint64(i)*8, w)
		}
	}
	for j := uint64(0); j < n/2; j++ {
		s.storeVol(&ents[base+j], makeEntry(p.seg, p.depth+1))
		s.storeVol(&ents[base+n/2+j], makeEntry(p.newSeg, p.depth+1))
	}
	s.store(ix.regAddrOf(p.seg), makeRegEntry(p.prefix<<1, p.depth+1))
	s.store(ix.regAddrOf(p.newSeg), makeRegEntry(p.prefix<<1|1, p.depth+1))
	if ix.sealAddr != 0 {
		s.store(ix.sealAddrOf(p.seg), sealOfImage(&p.imgA))
		s.store(ix.sealAddrOf(p.newSeg), sealOfImage(&p.imgB))
	}
}

// splitDone follows every committed split. DP2: both halves are cold
// multi-cacheline writes; one sequential flush each writes them back as
// single XPLines instead of scattered evictions ("the split operations
// are bandwidth-efficient due to the XPLine granularity", §VI-B).
func (h *Handle) splitDone(hh uint64) {
	ix, c, p := h.ix, h.c, &h.split
	ix.pool.Flush(c, p.seg, SegmentSize)
	ix.pool.Flush(c, p.newSeg, SegmentSize)
	if ix.cfg.PersistBarrier {
		// Legacy-ADR discipline: the registry entries must be durable
		// before the split is visible to a post-crash recovery.
		ix.pool.Flush(c, ix.regAddrOf(p.seg), 8)
		ix.pool.Flush(c, ix.regAddrOf(p.newSeg), 8)
		ix.pool.Fence(c)
	}
	ix.segments.Add(1)
	h.lane.Inc(obs.CSplits)
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
	h.lane.Inc(obs.CSplitFallbacks)
	for {
		d, e := ix.unlockedEntry(hh)
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
		if !ix.lockCovering(c, d, base, n, seg, depth) {
			continue
		}

		// Exclusive: perform the split irrevocably (stripe locks keep
		// half-published optimistic commits out of the snapshot and
		// make our writes conflicting-visible).
		err := ix.tm.Irrevocable(c, ix.pool, func(it *htm.ITxn) error {
			m := iMem{it}
			if err := h.prepareSplit(m, hh, seg, depth); err != nil {
				return err
			}
			h.commitSplit(m, d.entries, base, n)
			return nil
		})
		if err != nil {
			ix.unlockCovering(c, d, base, n)
			return err
		}
		h.splitDone(hh)
		return nil
	}
}

// unlockedEntry waits out a directory resize and any fallback lock on
// hh's directory entry, and returns the entry with the directory it
// was read from.
func (ix *Index) unlockedEntry(hh uint64) (*directory, uint64) {
	for {
		if atomic.LoadUint64(&ix.dirGen)&1 == 1 {
			ix.waitResize()
			continue
		}
		d := ix.dir.Load()
		if _, e := ix.resolveRaw(hh); !entryLocked(e) {
			return d, e
		}
		ix.pool.CheckLive()
		runtime.Gosched()
	}
}

// lockCovering fallback-locks the n entries of d from base, which must
// all still map seg at depth: in ascending order, each a CAS with a
// version bump so optimistic transactions conflict. If an entry has
// changed, or a resize is running (a doubling may have copied the
// entries before they were locked) or has replaced d, it unlocks what it
// took, yields and reports false, and the caller resolves the entry
// again.
func (ix *Index) lockCovering(c *pmem.Ctx, d *directory, base, n, seg uint64, depth uint) bool {
	locked := uint64(0)
	for ; locked < n; locked++ {
		ptr := &d.entries[base+locked]
		cur := atomic.LoadUint64(ptr)
		if entryLocked(cur) || entrySeg(cur) != seg || entryDepth(cur) != depth ||
			!ix.tm.BumpCASVol(c, ptr, cur, cur|entryLock) {
			break
		}
	}
	if locked == n && atomic.LoadUint64(&ix.dirGen)&1 == 0 && ix.dir.Load() == d {
		return true
	}
	ix.unlockCovering(c, d, base, locked)
	ix.pool.CheckLive()
	runtime.Gosched()
	return false
}

// unlockCovering releases the fallback locks on the n entries of d
// from base.
func (ix *Index) unlockCovering(c *pmem.Ctx, d *directory, base, n uint64) {
	for j := uint64(0); j < n; j++ {
		ptr := &d.entries[base+j]
		ix.tm.BumpStoreVol(c, ptr, entryUnlock(atomic.LoadUint64(ptr)))
	}
}
