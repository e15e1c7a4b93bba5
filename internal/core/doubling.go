package core

import (
	"runtime"
	"sync/atomic"

	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// triggerDouble grows the directory via collaborative staged doubling
// (§IV-B). One thread claims the doubling role; the old directory is
// divided into cacheline-sized partitions and each partition is copied
// into the doubled directory by its own small HTM transaction, so no
// transaction approaches the HTM capacity limit. Concurrent operations
// are never blocked: reads consult the partition-progress words to
// pick the old or new directory, and splits copy their own partitions
// (collaborating) before modifying the new directory. Threads that
// lose the race to claim the role simply wait for the resize.
func (ix *Index) triggerDouble(c *pmem.Ctx) {
	if !ix.resizeFlag.CompareAndSwap(0, 1) {
		ix.waitResize()
		return
	}
	if ix.cfg.MonolithicResize {
		// Ablation: traditional stop-the-world doubling. Concurrent
		// operations wait out the whole copy — the blocking the
		// paper's staged design eliminates (§IV-B).
		ix.stopWorldResize(c)
		ix.reg.Inc(obs.CDoubles)
		return
	}
	old := ix.dir.Load()
	if old.depth >= maxDepth {
		ix.resizeFlag.Store(0)
		return
	}
	ds := &doublingState{
		old: old,
		new: newDirectory(old.depth + 1),
	}
	ds.partDone = make([]uint64, ds.partitions())
	ix.doubling.Store(ds)
	gen := atomic.LoadUint64(&ix.dirGen)
	ix.tm.BumpStoreVol(c, &ix.dirGen, gen+1) // odd: doubling visible

	// The doubling role runs as its own virtual worker: the stage
	// copies execute concurrently with every operation thread (the
	// whole point of §IV-B), so their cost must not land on the
	// triggering operation's clock — it lives on a dedicated context
	// whose clock participates in the run's elapsed time like any
	// other worker's.
	dc := ix.pool.NewCtx()
	parts := int64(ds.partitions())
	for {
		s := ds.next.Add(1) - 1
		if s >= parts {
			break
		}
		ix.copyStage(dc, ds, int(s), false)
	}
	// Collaborators may still be completing stages they claimed.
	for p := 0; p < int(parts); p++ {
		for atomic.LoadUint64(ds.partDonePtr(p)) != 1 {
			ix.pool.CheckLive()
			runtime.Gosched()
		}
	}

	ix.dir.Store(ds.new)
	ix.tm.BumpStoreVol(dc, &ix.dirGen, gen+2) // even: doubling done
	dc.Release()
	ix.doubling.Store(nil)
	ix.resizeFlag.Store(0)
	ix.reg.Inc(obs.CDoubles)
}

// copyStage copies one directory partition from the old to the new
// directory in a single small HTM transaction. Idempotent: concurrent
// helpers racing on the same partition conflict and the losers observe
// partDone. Stages skip (and spin on) fallback-locked entries so a
// lock holder's entry is never silently relocated.
func (ix *Index) copyStage(c *pmem.Ctx, ds *doublingState, part int, collab bool) {
	for {
		code, _ := ix.tm.Run(c, ix.pool, func(tx *htm.Txn) error {
			if tx.LoadVol(ds.partDonePtr(part)) == 1 {
				return nil
			}
			base := part * entriesPerPartition
			end := base + entriesPerPartition
			if end > len(ds.old.entries) {
				end = len(ds.old.entries)
			}
			for j := base; j < end; j++ {
				e := tx.LoadVol(&ds.old.entries[j])
				if entryLocked(e) {
					return errLocked
				}
				tx.StoreVol(&ds.new.entries[2*j], e)
				tx.StoreVol(&ds.new.entries[2*j+1], e)
			}
			tx.StoreVol(ds.partDonePtr(part), 1)
			return nil
		})
		switch code {
		case htm.Committed:
			if collab {
				ix.reg.Inc(obs.CCollabStages)
			}
			return
		case htm.Conflict, htm.Capacity:
			if atomic.LoadUint64(ds.partDonePtr(part)) == 1 {
				return
			}
		case htm.Explicit: // errLocked: wait for the fallback holder
			ix.pool.CheckLive()
			runtime.Gosched()
		}
	}
}

// doubleLocked grows the directory in the lock modes, under every stripe
// lock. fullDir is the directory the caller found insufficient: if
// another worker already replaced it, the doubling is skipped — without
// this guard, a burst of workers hitting the same full directory would
// double it once each.
func (ix *Index) doubleLocked(c *pmem.Ctx, fullDir *directory) {
	ix.allStripes(c, func() {
		if old := ix.dir.Load(); old == fullDir {
			if nd := doubled(old); nd != nil {
				c.ChargeDRAM(3 * len(old.entries))
				ix.dir.Store(nd)
				ix.reg.Inc(obs.CDoubles)
			}
		}
	})
}

// doubled returns old at twice its depth, each entry copied to both of
// its halves, or nil at maxDepth. Loads are atomic: under HTM, late
// commits may still be storing entries while a stop-the-world resize
// drains. A copy never carries a fallback lock: after the drain, a lock
// bit belongs to an execFallback that locked between the drain and the
// copy, which then finds the resize, restores the old entry unlocked
// and retries on the new directory, where a copied lock would wedge it.
func doubled(old *directory) *directory {
	if old.depth >= maxDepth {
		return nil
	}
	nd := newDirectory(old.depth + 1)
	for j := range old.entries {
		e := entryUnlock(atomic.LoadUint64(&old.entries[j]))
		nd.entries[2*j] = e
		nd.entries[2*j+1] = e
	}
	return nd
}

// stopWorldResize quiesces the index (in-flight transactions abort on
// the generation word, new operations wait, fallback-lock holders
// drain) and swaps in the doubled directory (none at maxDepth). The
// caller must hold resizeFlag; it is released here.
func (ix *Index) stopWorldResize(c *pmem.Ctx) {
	start := c.Clock()
	old := ix.dir.Load()
	ds := &doublingState{old: old, stopWorld: true}
	ix.doubling.Store(ds)
	gen := atomic.LoadUint64(&ix.dirGen)
	ix.tm.BumpStoreVol(c, &ix.dirGen, gen+1)

	// Wait for fallback-lock holders to drain.
	for {
		clean := true
		for i := range old.entries {
			if entryLocked(atomic.LoadUint64(&old.entries[i])) {
				clean = false
				break
			}
		}
		if clean {
			break
		}
		ix.pool.CheckLive()
		runtime.Gosched()
	}

	if nd := doubled(old); nd != nil {
		// The copy is DRAM work; charge it so the resize has a
		// virtual duration.
		c.ChargeDRAM(len(old.entries) + len(nd.entries))
		ix.dir.Store(nd)
	}
	ix.lastResizeCost.Store(c.Clock() - start)
	ix.resizeEpoch.Add(1)
	ix.tm.BumpStoreVol(c, &ix.dirGen, gen+2)
	ix.doubling.Store(nil)
	ix.resizeFlag.Store(0)
}
