package core

import (
	"sync/atomic"

	"spash/internal/hash"
)

// Directory entry encoding (volatile, one uint64 per entry):
//
//	[63 fallback lock][62..56 unused][55..48 local depth][47..8 | 7..0 of segment address]
//
// Segments are 256-byte aligned, so the low 8 bits of the address are
// zero and the local depth is stored there instead; the address
// occupies bits 47..8. Bit 63 is the per-segment fallback lock of the
// two-phase protocol (§IV-A).
const (
	entryLock      = uint64(1) << 63
	entryDepthMask = uint64(0xFF)
	entryAddrMask  = payload &^ entryDepthMask
)

func makeEntry(seg uint64, depth uint) uint64 {
	return seg | uint64(depth)
}

func entrySeg(e uint64) uint64    { return e & entryAddrMask }
func entryDepth(e uint64) uint    { return uint(e & entryDepthMask) }
func entryLocked(e uint64) bool   { return e&entryLock != 0 }
func entryUnlock(e uint64) uint64 { return e &^ entryLock }

// directory is one immutable-size snapshot of the volatile directory.
// Entries are mutated in place (transactionally or under locks); the
// slice itself is replaced only by doubling/halving.
//
// Eight entries share a cacheline, the HTM's unit of conflict: taking
// or dropping one segment's fallback lock (a bumping store to its
// canonical entry), or splitting it, costs the transactions in flight
// on its seven line-neighbours one retry — what RTM does to a
// directory packed this way.
type directory struct {
	entries []uint64
	depth   uint
}

func newDirectory(depth uint) *directory {
	return &directory{entries: make([]uint64, uint64(1)<<depth), depth: depth}
}

// index returns the directory slot for a key hash.
func (d *directory) index(h uint64) uint64 {
	return hash.Prefix(h, d.depth)
}

// entriesPerPartition is the number of directory entries per doubling
// stage: one cacheline worth (§IV-B).
const entriesPerPartition = 8

// doublingState tracks one in-progress collaborative staged doubling.
type doublingState struct {
	old *directory
	new *directory
	// partDone has one word per partition of the old directory:
	// 0 = pending, 1 = copied. Read/written transactionally. The words
	// are packed, so a stage's commit also retries the readers and
	// copiers of the seven partitions sharing its progress line; that
	// happens once per stage, and padding them apart would cost a second
	// copy of the old directory.
	partDone []uint64
	// next is the next stage the doubling thread will claim;
	// collaborators take specific stages out of order.
	next atomic.Int64
	// halving marks a stop-the-world maintenance resize (TryShrink);
	// concurrent operations wait instead of collaborating.
	halving bool
}

func (ds *doublingState) partitions() int {
	return (len(ds.old.entries) + entriesPerPartition - 1) / entriesPerPartition
}

func (ds *doublingState) partOf(oldIdx uint64) int {
	return int(oldIdx / entriesPerPartition)
}

func (ds *doublingState) partDonePtr(p int) *uint64 { return &ds.partDone[p] }

// resolveRaw returns the authoritative directory entry pointer and its
// current value for hash h — the preparation-phase lookup (step 1).
// During a doubling it follows the paper's rule: partitions already
// copied are served from the new directory, pending ones from the old.
// The result may be stale by the time it is used; the transaction
// phase re-resolves and validates.
func (ix *Index) resolveRaw(h uint64) (*uint64, uint64) {
	for {
		if p, e, ok := ix.resolveRawNoWait(h); ok {
			return p, e
		}
		ix.waitResize()
	}
}

// resolveRawNoWait is resolveRaw except that during a halving it
// reports ok=false instead of blocking — callers that hold a fallback
// lock must use it (and release their lock before waiting) to avoid
// deadlocking against the halving thread's lock-drain phase.
func (ix *Index) resolveRawNoWait(h uint64) (*uint64, uint64, bool) {
	for {
		gen := atomic.LoadUint64(&ix.dirGen)
		if gen&1 == 0 {
			d := ix.dir.Load()
			p := &d.entries[d.index(h)]
			e := atomic.LoadUint64(p)
			if atomic.LoadUint64(&ix.dirGen) != gen {
				continue // resize raced; retry
			}
			return p, e, true
		}
		ds := ix.doubling.Load()
		if ds == nil {
			continue // raced with completion
		}
		if ds.halving {
			return nil, 0, false
		}
		oldIdx := ds.old.index(h)
		var p *uint64
		if atomic.LoadUint64(ds.partDonePtr(ds.partOf(oldIdx))) == 1 {
			p = &ds.new.entries[ds.new.index(h)]
		} else {
			p = &ds.old.entries[oldIdx]
		}
		return p, atomic.LoadUint64(p), true
	}
}

// resolveCanonicalNoWait returns the canonical lock entry (see
// resolveTx) for hash h: the pointer to lock, its current value, and
// the segment address. ok=false during a halving, and while a copy
// stage holds the stripe of a partition-progress word it reads: such a
// stage is ordered before a fallback lock taken now, but may not have
// stored the word yet.
func (ix *Index) resolveCanonicalNoWait(h uint64) (cPtr *uint64, centry uint64, seg uint64, ok bool) {
	for {
		gen := atomic.LoadUint64(&ix.dirGen)
		if gen&1 == 0 {
			d := ix.dir.Load()
			idx := d.index(h)
			e := atomic.LoadUint64(&d.entries[idx])
			depth := entryDepth(e)
			if depth > d.depth {
				continue // torn with a resize; retry
			}
			base := idx &^ (uint64(1)<<(d.depth-depth) - 1)
			cPtr = &d.entries[base]
			centry = atomic.LoadUint64(cPtr)
			if atomic.LoadUint64(&ix.dirGen) != gen || entrySeg(centry) != entrySeg(e) {
				continue // raced with a resize or split; retry
			}
			return cPtr, centry, entrySeg(e), true
		}
		ds := ix.doubling.Load()
		if ds == nil {
			continue
		}
		if ds.halving {
			return nil, 0, 0, false
		}
		oldIdx := ds.old.index(h)
		done, settled := ix.tm.PeekVol(ds.partDonePtr(ds.partOf(oldIdx)))
		if !settled {
			return nil, 0, 0, false
		}
		var ptr *uint64
		if done == 1 {
			ptr = &ds.new.entries[ds.new.index(h)]
		} else {
			ptr = &ds.old.entries[oldIdx]
		}
		e := atomic.LoadUint64(ptr)
		depth := entryDepth(e)
		if depth > ds.old.depth {
			return ptr, e, entrySeg(e), true // own entry is canonical
		}
		cOld := oldIdx &^ (uint64(1)<<(ds.old.depth-depth) - 1)
		if done, settled = ix.tm.PeekVol(ds.partDonePtr(ds.partOf(cOld))); !settled {
			return nil, 0, 0, false
		}
		if done == 1 {
			cPtr = &ds.new.entries[cOld<<1]
		} else {
			cPtr = &ds.old.entries[cOld]
		}
		centry = atomic.LoadUint64(cPtr)
		if entrySeg(centry) != entrySeg(e) {
			continue // raced with a split; retry
		}
		return cPtr, centry, entrySeg(e), true
	}
}

// retryError signals the caller to restart the operation from the
// preparation phase (the "actively abort and retry" of §IV-A). A body
// returns one on its ordinary paths — every insert into a full segment
// ends in errNeedSplit — so the type is one byte: converting it to error
// allocates nothing.
type retryError uint8

const (
	errSegMoved retryError = iota + 1
	errLocked
	errNeedSplit
	errResizing
	// errNeedDouble is the lock modes' signal that a split requires the
	// directory to grow first (splitLocked).
	errNeedDouble
)

func (e retryError) Error() string {
	return "core: retry: " + [...]string{
		errSegMoved:   "segment changed",
		errLocked:     "segment fallback-locked",
		errNeedSplit:  "segment full, split needed",
		errResizing:   "directory resize in progress",
		errNeedDouble: "directory full",
	}[e]
}
