package core

import (
	"runtime"
	"sync/atomic"

	"spash/internal/hash"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// stripeOf maps a key hash to its lock stripe. Because the stripe is a
// hash prefix no longer than any segment's local depth (enforced by
// withDefaults), one stripe always covers whole segments.
func (ix *Index) stripeOf(h uint64) uint64 {
	return h >> (64 - ix.cfg.LockStripeBits)
}

func (ix *Index) lockStripe(c *pmem.Ctx, s uint64) {
	if ix.cfg.Concurrency == ModeWriteLock {
		ix.locks[s].Lock(c)
		atomic.AddUint64(&ix.seqs[s], 1) // odd: readers retry
	} else {
		ix.rwlocks[s].Lock(c)
	}
}

func (ix *Index) unlockStripe(c *pmem.Ctx, s uint64) {
	if ix.cfg.Concurrency == ModeWriteLock {
		atomic.AddUint64(&ix.seqs[s], 1) // even
		ix.locks[s].Unlock(c)
	} else {
		ix.rwlocks[s].Unlock(c)
	}
}

// execLocked runs body under the lock-mode protocols of Fig 12(c):
// ModeWriteLock serialises writers per stripe and lets readers run
// optimistically against a per-stripe seqlock (Dash-style); ModeRWLock
// takes the stripe's read-write lock for every operation (Level-style).
func (h *Handle) execLocked(r *req, readonly bool, body func(m mem, seg uint64) error) error {
	ix := h.ix
	stripe := ix.stripeOf(r.h)
	raw := rawMem{ix.pool, h.c}

	if readonly {
		if ix.cfg.Concurrency == ModeWriteLock {
			for {
				s1 := atomic.LoadUint64(&ix.seqs[stripe])
				if s1&1 == 1 {
					runtime.Gosched()
					continue
				}
				_, e := ix.resolveRaw(r.h)
				err := body(raw, entrySeg(e))
				if atomic.LoadUint64(&ix.seqs[stripe]) == s1 {
					return err
				}
			}
		}
		lk := &ix.rwlocks[stripe]
		lk.RLock(h.c)
		_, e := ix.resolveRaw(r.h)
		err := body(raw, entrySeg(e))
		lk.RUnlock(h.c)
		return err
	}

	for {
		ix.lockStripe(h.c, stripe)
		var err error
		var seg uint64
		fullDir := (*directory)(nil)
		for {
			_, e := ix.resolveRaw(r.h)
			seg = entrySeg(e)
			err = body(raw, seg)
			if re, ok := err.(retryError); ok && re == errNeedSplit {
				fullDir = ix.dir.Load()
				err = ix.splitLocked(h, r.h)
				if err == nil {
					continue // retry the operation under the same lock
				}
			}
			break
		}
		if err == nil && ix.cfg.PersistBarrier {
			// Classic ADR discipline: persist the modified bucket
			// before the operation returns.
			line := seg + uint64(mainBucket(r.h))*pmem.CachelineSize
			ix.pool.Flush(h.c, line, pmem.CachelineSize)
			ix.pool.Fence(h.c)
		}
		ix.unlockStripe(h.c, stripe)
		if re, ok := err.(retryError); ok && re == errNeedDouble {
			ix.doubleLocked(h.c, fullDir)
			continue
		}
		return err
	}
}

// splitLocked splits the segment for hh; the caller holds the
// covering stripe lock, so the split proceeds raw. Readers in
// ModeWriteLock observe the stripe seqlock and retry.
func (ix *Index) splitLocked(h *Handle, hh uint64) error {
	c := h.c
	d := ix.dir.Load()
	_, e := ix.resolveRaw(hh)
	seg, depth := entrySeg(e), entryDepth(e)
	if depth >= maxDepth {
		return errMaxDepth
	}
	if depth == d.depth {
		return errNeedDouble
	}
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
	m := rawMem{ix.pool, c}
	for i, w := range imgB {
		m.store(newSeg+uint64(i)*8, w)
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
	base := prefix << (d.depth - depth)
	n := uint64(1) << (d.depth - depth)
	for j := uint64(0); j < n/2; j++ {
		atomic.StoreUint64(&d.entries[base+j], makeEntry(seg, depth+1))
		atomic.StoreUint64(&d.entries[base+n/2+j], makeEntry(newSeg, depth+1))
	}
	ix.pool.Flush(c, seg, SegmentSize)
	ix.pool.Flush(c, newSeg, SegmentSize)
	if ix.cfg.PersistBarrier {
		// Legacy-ADR discipline: the registry entries must be durable
		// before the split is visible to a post-crash recovery.
		ix.pool.Flush(c, ix.regAddrOf(seg), 8)
		ix.pool.Flush(c, ix.regAddrOf(newSeg), 8)
		ix.pool.Fence(c)
	}
	ix.splits.Add(1)
	ix.segments.Add(1)
	h.lane.Inc(obs.CSplits)
	h.lane.Inc(obs.CSegAlloc)
	ix.reg.Trace(obs.EvSplit, c.Clock(), int64(depth+1), int64(liveA+liveB))
	ix.reg.ObserveKeyed(obs.HSegOccupancy, hh, liveA)
	ix.reg.ObserveKeyed(obs.HSegOccupancy, hh^splitOccSalt, liveB)
	return nil
}

// doubleLocked grows the directory under every stripe lock (writers
// excluded; ModeWriteLock readers retry on their stripe seqlocks,
// which are all left odd for the duration). fullDir is the directory
// the caller found insufficient: if another worker already replaced
// it, the doubling is skipped — without this guard, a burst of
// workers hitting the same full directory would double it once each.
func (ix *Index) doubleLocked(c *pmem.Ctx, fullDir *directory) {
	n := uint64(len(ix.seqs))
	for s := uint64(0); s < n; s++ {
		ix.lockStripe(c, s)
	}
	old := ix.dir.Load()
	if (fullDir == nil || old == fullDir) && old.depth < maxDepth {
		nd := newDirectory(old.depth + 1)
		for j, e := range old.entries {
			nd.entries[2*j] = e
			nd.entries[2*j+1] = e
		}
		c.ChargeDRAM(3 * len(old.entries))
		ix.dir.Store(nd)
		ix.doubles.Add(1)
	}
	for s := uint64(0); s < n; s++ {
		ix.unlockStripe(c, s)
	}
}

// tryShrinkLocked halves the directory under every stripe lock.
func (ix *Index) tryShrinkLocked(c *pmem.Ctx) bool {
	n := uint64(len(ix.seqs))
	for s := uint64(0); s < n; s++ {
		ix.lockStripe(c, s)
	}
	defer func() {
		for s := uint64(0); s < n; s++ {
			ix.unlockStripe(c, s)
		}
	}()
	old := ix.dir.Load()
	if old.depth <= ix.cfg.LockStripeBits {
		return false
	}
	for i := range old.entries {
		if entryDepth(old.entries[i]) >= old.depth {
			return false
		}
	}
	nd := newDirectory(old.depth - 1)
	for j := range nd.entries {
		nd.entries[j] = old.entries[2*j]
	}
	ix.dir.Store(nd)
	return true
}
