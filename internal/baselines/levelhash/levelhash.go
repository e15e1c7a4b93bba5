// Package levelhash reimplements Level hashing (Zuo et al., OSDI'18):
// a two-level bucketised hash in PM where every key has two candidate
// buckets per level (two hash functions), inserts may displace one
// entry to its alternate bucket, and growth is a full-table rehash
// that turns the old top level into the new bottom level and rehashes
// the old bottom.
//
// The properties that drive the paper's comparison:
//
//   - locks are taken for reads AND writes (the paper's Fig 12c
//     "w/ write & read lock" protocol) and lock words live in PM;
//   - a search may probe up to four buckets spread over two
//     non-contiguous arrays (many XPLine touches, Fig 8);
//   - full-table rehashing makes inserts stall badly (Fig 7b);
//   - flush instructions are removed per the paper's methodology.
package levelhash

import (
	"sync"
	"sync/atomic"

	"spash/internal/alloc"
	"spash/internal/baselines/common"
	"spash/internal/hash"
	"spash/internal/ixapi"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

const (
	slotsPerBucket = 4
	bucketBytes    = slotsPerBucket * 16
	initLevelBits  = 6 // top starts at 64 buckets
	lockStripes    = 1024
)

// level is one bucket array in PM.
type level struct {
	addr    uint64
	buckets uint64
}

// table is the two-level structure; replaced wholesale on resize.
type table struct {
	top, bottom level
}

// Level is the index.
type Level struct {
	pool *pmem.Pool
	al   *alloc.Allocator
	grp  *vsync.Group

	tab atomic.Pointer[table]

	// locks serialise per key-stripe (Level hashing locks reads and
	// writes alike); the full-table rehash takes every stripe,
	// stalling all operations for its whole duration — exactly the
	// behaviour the paper criticises. lockArr is the PM region whose
	// words absorb the lock-maintenance traffic.
	locks   [lockStripes]vsync.Mutex
	lockArr uint64

	// moveMu makes one insert's eviction atomic with respect to other
	// evictions (see insertAt). It is a host mutex, not a vsync one: it
	// arbitrates the reimplementation's goroutines and costs nothing
	// in the simulated machine.
	moveMu sync.Mutex

	entries atomic.Int64
}

// New creates a Level hashing index.
func New(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator) (*Level, error) {
	t := &Level{pool: pool, al: al, grp: &vsync.Group{}}
	for i := range t.locks {
		t.locks[i].G = t.grp
	}
	la, err := al.AllocRaw(c, lockStripes*8)
	if err != nil {
		return nil, err
	}
	t.lockArr = la
	top, err := t.newLevel(c, 1<<initLevelBits)
	if err != nil {
		return nil, err
	}
	bottom, err := t.newLevel(c, 1<<(initLevelBits-1))
	if err != nil {
		return nil, err
	}
	t.tab.Store(&table{top: top, bottom: bottom})
	return t, nil
}

func (t *Level) newLevel(c *pmem.Ctx, buckets uint64) (level, error) {
	addr, err := t.al.AllocRaw(c, buckets*bucketBytes)
	if err != nil {
		return level{}, err
	}
	return level{addr: addr, buckets: buckets}, nil
}

// Name implements ixapi.Index.
func (t *Level) Name() string { return "Level" }

// Len implements ixapi.Index.
func (t *Level) Len() int { return int(t.entries.Load()) }

// LoadFactor implements ixapi.Index.
func (t *Level) LoadFactor() float64 {
	tab := t.tab.Load()
	cap := (tab.top.buckets + tab.bottom.buckets) * slotsPerBucket
	return float64(t.entries.Load()) / float64(cap)
}

// Pools implements ixapi.Index: one device.
func (t *Level) Pools() []*pmem.Pool { return []*pmem.Pool{t.pool} }

// Groups implements ixapi.Index: one serialisation domain.
func (t *Level) Groups() []*vsync.Group { return []*vsync.Group{t.grp} }

// Worker is the per-goroutine handle.
type Worker struct {
	t  *Level
	c  *pmem.Ctx
	ah *alloc.Handle
}

// NewWorker implements ixapi.Index.
func (t *Level) NewWorker() ixapi.Worker {
	return &Worker{t: t, c: t.pool.NewCtx(), ah: t.al.NewHandle()}
}

// ResetClock and Clock implement ixapi.Worker over the worker's one
// pmem context.
func (w *Worker) ResetClock()  { w.c.ResetClock() }
func (w *Worker) Clock() int64 { return w.c.Clock() }

// Close implements ixapi.Worker.
func (w *Worker) Close() { w.ah.Close() }

// hashes returns the two independent hash values of a key.
func hashes(key []byte) (uint64, uint64) {
	h1 := common.HashKey(key)
	return h1, hash.Sum64Uint64(h1 ^ 0x5bd1e9955bd1e995)
}

func slotAddr(l level, bucket uint64, slot int) uint64 {
	return l.addr + bucket*bucketBytes + uint64(slot)*16
}

// candidates lists the four candidate buckets of a key, top first.
func candidates(tab *table, h1, h2 uint64) [4]struct {
	l level
	b uint64
} {
	return [4]struct {
		l level
		b uint64
	}{
		{tab.top, h1 % tab.top.buckets},
		{tab.top, h2 % tab.top.buckets},
		{tab.bottom, h1 % tab.bottom.buckets},
		{tab.bottom, h2 % tab.bottom.buckets},
	}
}

// locked runs fn with the key's stripe lock held (Level hashing locks
// reads and writes alike). The table pointer is read under the stripe
// lock; the full-table rehash holds every stripe, so fn never observes
// a table mid-rehash.
func (w *Worker) locked(h1 uint64, fn func(tab *table) error) error {
	t := w.t
	lk := &t.locks[h1%lockStripes]
	lk.Lock(w.c)
	common.PMLockTraffic(w.c, t.pool, t.lockArr+h1%lockStripes*8)
	err := fn(t.tab.Load())
	common.PMLockTraffic(w.c, t.pool, t.lockArr+h1%lockStripes*8)
	lk.Unlock(w.c)
	return err
}

// find scans the four candidate buckets for key, reading each once; it
// returns the slot with its value word.
func (w *Worker) find(tab *table, h1, h2 uint64, key []byte) (level, uint64, int, uint64, bool) {
	for _, c := range candidates(tab, h1, h2) {
		line := w.t.pool.LoadLine(w.c, slotAddr(c.l, c.b, 0))
		for s := 0; s < slotsPerBucket; s++ {
			if kw := line[2*s]; common.IsOccupied(kw) && common.KeyWordMatches(w.c, w.t.pool, kw, key) {
				return c.l, c.b, s, line[2*s+1], true
			}
		}
	}
	return level{}, 0, 0, 0, false
}

// Search implements ixapi.Worker.
func (w *Worker) Search(key, dst []byte) ([]byte, bool, error) {
	h1, h2 := hashes(key)
	var out []byte
	found := false
	err := w.locked(h1, func(tab *table) error {
		_, _, _, vw, ok := w.find(tab, h1, h2, key)
		found = ok
		if ok {
			out = common.LoadValueWord(w.c, w.t.pool, vw, dst)
		}
		return nil
	})
	if err != nil || !found {
		return dst, false, err
	}
	return out, true, nil
}

// Update implements ixapi.Worker (out-of-place, as in the original).
func (w *Worker) Update(key, val []byte) (bool, error) {
	h1, h2 := hashes(key)
	vp, vi := common.InlinePayload(val)
	if !vi {
		rec, err := common.WriteRecord(w.c, w.t.pool, w.ah, val)
		if err != nil {
			return false, err
		}
		vp = rec
	}
	vw := common.MakeWord(vi, vp)
	found := false
	err := w.locked(h1, func(tab *table) error {
		l, b, s, _, ok := w.find(tab, h1, h2, key)
		found = ok
		if ok {
			w.t.pool.Store64(w.c, slotAddr(l, b, s)+8, vw)
		}
		return nil
	})
	return found, err
}

// Delete implements ixapi.Worker.
func (w *Worker) Delete(key []byte) (bool, error) {
	h1, h2 := hashes(key)
	found := false
	err := w.locked(h1, func(tab *table) error {
		l, b, s, _, ok := w.find(tab, h1, h2, key)
		found = ok
		if ok {
			w.t.pool.Store64(w.c, slotAddr(l, b, s), 0)
		}
		return nil
	})
	if err == nil && found {
		w.t.entries.Add(-1)
	}
	return found, err
}

// Insert implements ixapi.Worker (upsert).
func (w *Worker) Insert(key, val []byte) error {
	t := w.t
	h1, h2 := hashes(key)
	kw, vw, _, _, err := common.EncodeKV(w.c, t.pool, w.ah, key, val)
	if err != nil {
		return err
	}
	for {
		inserted := false
		err := w.locked(h1, func(tab *table) error {
			if l, b, s, _, ok := w.find(tab, h1, h2, key); ok {
				t.pool.Store64(w.c, slotAddr(l, b, s)+8, vw)
				inserted = true
				return nil
			}
			if w.insertAt(tab, h1, h2, kw, vw) {
				t.entries.Add(1)
				inserted = true
			}
			return nil
		})
		if err != nil {
			return err
		}
		if inserted {
			return nil
		}
		if err := t.resize(w, h1); err != nil {
			return err
		}
	}
}

// claimSentinel is an occupied key word that matches no real key (a
// pointer to address 0): it reserves a slot between the claiming CAS
// and the final publication.
const claimSentinel = common.Occupied

// claimSlot atomically claims a free slot: the key word is CASed from
// empty to a reserved sentinel (arbitrating racing inserts of
// different keys, like the original's slot tokens), then the value
// word is written, then the real key word is published. Readers skip
// the sentinel because it matches no key.
func (w *Worker) claimSlot(l level, b uint64, s int, kw, vw uint64) bool {
	t := w.t
	if !t.pool.CAS64(w.c, slotAddr(l, b, s), 0, claimSentinel) {
		return false
	}
	t.pool.Store64(w.c, slotAddr(l, b, s)+8, vw)
	t.pool.Store64(w.c, slotAddr(l, b, s), kw)
	return true
}

// insertAt places (kw, vw) in a free candidate slot, trying one-step
// displacement when all four buckets are full.
func (w *Worker) insertAt(tab *table, h1, h2 uint64, kw, vw uint64) bool {
	t := w.t
	cands := candidates(tab, h1, h2)
	for _, c := range cands {
		line := t.pool.LoadLine(w.c, slotAddr(c.l, c.b, 0))
		for s := 0; s < slotsPerBucket; s++ {
			if !common.IsOccupied(line[2*s]) && w.claimSlot(c.l, c.b, s, kw, vw) {
				return true
			}
		}
	}
	// Movement: try to evict one resident of a candidate bucket to its
	// own alternate bucket. The resident belongs to another stripe, so
	// the stripe lock does not cover it: two inserts evicting the same
	// resident would both repurpose its old slot and one of the two new
	// keys would vanish.
	t.moveMu.Lock()
	defer t.moveMu.Unlock()
	for _, c := range cands {
		for s := 0; s < slotsPerBucket; s++ {
			// The victim is under another stripe's lock: read its slot
			// when its turn comes, not from a line read before the
			// earlier slots' rehashes and alternate-bucket loads.
			line := t.pool.LoadLine(w.c, slotAddr(c.l, c.b, 0))
			okw, ovw := line[2*s], line[2*s+1]
			if !common.IsOccupied(okw) || okw == claimSentinel {
				continue // free, or another insert is mid-claim
			}
			oh1, oh2 := w.rehashWord(okw)
			// The entry's alternate bucket within the same level.
			alt := oh1 % c.l.buckets
			if alt == c.b {
				alt = oh2 % c.l.buckets
			}
			if alt == c.b {
				continue
			}
			altLine := t.pool.LoadLine(w.c, slotAddr(c.l, alt, 0))
			for as := 0; as < slotsPerBucket; as++ {
				if !common.IsOccupied(altLine[2*as]) && w.claimSlot(c.l, alt, as, okw, ovw) {
					// The victim now lives in its alternate bucket;
					// its old slot can be repurposed for the new key.
					t.pool.Store64(w.c, slotAddr(c.l, c.b, s)+8, vw)
					t.pool.Store64(w.c, slotAddr(c.l, c.b, s), kw)
					return true
				}
			}
		}
	}
	return false
}

// rehashWord recovers both hashes of a stored key word.
func (w *Worker) rehashWord(kw uint64) (uint64, uint64) {
	var h1 uint64
	if common.IsInline(kw) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(common.PayloadOf(kw) >> (8 * i))
		}
		h1 = common.HashKey(b[:])
	} else {
		buf := common.ReadRecord(w.c, w.t.pool, common.PayloadOf(kw), nil)
		h1 = common.HashKey(buf)
	}
	return h1, hash.Sum64Uint64(h1 ^ 0x5bd1e9955bd1e995)
}

// resize performs the full-table rehash: the old top becomes the new
// bottom and every old-bottom entry is reinserted. It holds the
// structure lock exclusively — the stall the paper attributes to
// level-based resizing.
func (t *Level) resize(w *Worker, h1 uint64) error {
	before := t.tab.Load()
	// Stall the whole table: every stripe lock is held for the full
	// rehash. The caller must not hold its stripe (locked() released
	// it before calling).
	for i := range t.locks {
		t.locks[i].Lock(w.c)
	}
	defer func() {
		for i := range t.locks {
			t.locks[i].Unlock(w.c)
		}
	}()
	old := t.tab.Load()
	if old != before {
		return nil // another thread resized while we waited
	}
	for factor := uint64(2); ; factor *= 2 {
		newTop, err := t.newLevel(w.c, old.top.buckets*factor)
		if err != nil {
			return err
		}
		if t.rehashInto(w, old.bottom, newTop) {
			t.tab.Store(&table{top: newTop, bottom: old.top})
			return nil
		}
		// A bottom entry did not fit even in the doubled top
		// (pathological skew): discard the attempt — the old table is
		// untouched because rehashing writes only into newTop — and
		// retry with a larger top.
	}
}

// rehashInto reinserts every old-bottom entry into the new top level
// (both hash locations land in the new top, as in the original
// algorithm). Returns false if some entry did not fit.
func (t *Level) rehashInto(w *Worker, bottom, newTop level) bool {
	for b := uint64(0); b < bottom.buckets; b++ {
		line := t.pool.LoadLine(w.c, slotAddr(bottom, b, 0))
		for s := 0; s < slotsPerBucket; s++ {
			kw, vw := line[2*s], line[2*s+1]
			if !common.IsOccupied(kw) {
				continue
			}
			h1, h2 := w.rehashWord(kw)
			placed := false
			for _, bb := range [2]uint64{h1 % newTop.buckets, h2 % newTop.buckets} {
				target := t.pool.LoadLine(w.c, slotAddr(newTop, bb, 0))
				for ns := 0; ns < slotsPerBucket && !placed; ns++ {
					if !common.IsOccupied(target[2*ns]) {
						t.pool.Store64(w.c, slotAddr(newTop, bb, ns)+8, vw)
						t.pool.Store64(w.c, slotAddr(newTop, bb, ns), kw)
						placed = true
					}
				}
				if placed {
					break
				}
			}
			if !placed {
				return false
			}
		}
	}
	return true
}
