package core

import (
	"runtime"
	"sync/atomic"

	"spash/internal/pmem"
	"spash/internal/vsync"
)

// stripeLocks is a lock mode's table of per-stripe locks (Fig 12(c)).
// Writers, splits and merges hold their stripe exclusively; a reader
// brackets its body with readBegin/readEnd and repeats it while readEnd
// reports a writer in between.
type stripeLocks interface {
	lock(c *pmem.Ctx, s uint64)
	unlock(c *pmem.Ctx, s uint64)
	readBegin(c *pmem.Ctx, s uint64) uint64
	readEnd(c *pmem.Ctx, s, seq uint64) bool
}

// seqStripes is ModeWriteLock (Dash-style): writers serialise on the
// stripe's mutex and readers run lock-free against its seqlock, which is
// odd while a writer holds the stripe.
type seqStripes struct {
	mu   []vsync.Mutex
	seqs []atomic.Uint64
}

func (st *seqStripes) lock(c *pmem.Ctx, s uint64) {
	st.mu[s].Lock(c)
	st.seqs[s].Add(1) // odd: readers retry
}

func (st *seqStripes) unlock(c *pmem.Ctx, s uint64) {
	st.seqs[s].Add(1) // even
	st.mu[s].Unlock(c)
}

func (st *seqStripes) readBegin(_ *pmem.Ctx, s uint64) uint64 {
	for {
		if seq := st.seqs[s].Load(); seq&1 == 0 {
			return seq
		}
		runtime.Gosched()
	}
}

func (st *seqStripes) readEnd(_ *pmem.Ctx, s, seq uint64) bool {
	return st.seqs[s].Load() == seq
}

// rwStripes is ModeRWLock (Level-style): every operation takes the
// stripe's read-write lock.
type rwStripes []vsync.RWMutex

func (st rwStripes) lock(c *pmem.Ctx, s uint64)   { st[s].Lock(c) }
func (st rwStripes) unlock(c *pmem.Ctx, s uint64) { st[s].Unlock(c) }

func (st rwStripes) readBegin(c *pmem.Ctx, s uint64) uint64 {
	st[s].RLock(c)
	return 0
}

func (st rwStripes) readEnd(c *pmem.Ctx, s, _ uint64) bool {
	st[s].RUnlock(c)
	return true
}

// stripeOf maps a key hash to its lock stripe. Because the stripe is a
// hash prefix no longer than any segment's local depth (enforced by
// withDefaults, merge and halve), one stripe always covers whole
// segments.
func (ix *Index) stripeOf(h uint64) uint64 {
	return h >> (64 - ix.stripeBits)
}

// allStripes runs fn with every stripe lock held: writers wait and
// seqlock readers retry until it returns.
func (ix *Index) allStripes(c *pmem.Ctx, fn func()) {
	n := uint64(1) << ix.stripeBits
	for s := uint64(0); s < n; s++ {
		ix.stripes.lock(c, s)
	}
	fn()
	for s := uint64(0); s < n; s++ {
		ix.stripes.unlock(c, s)
	}
}
