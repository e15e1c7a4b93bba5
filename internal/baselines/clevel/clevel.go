// Package clevel reimplements CLevel hashing (Chen et al., ATC'20):
// lock-free concurrent level hashing. Slots hold 8-byte pointers to
// immutable key-value records; all mutations are CAS operations on
// slot words (insert CASes a pointer into an empty slot, update CASes
// old→new record, delete CASes to zero), and growth publishes a new
// level list while entries migrate from the drained bottom level.
//
// What drives the paper's comparison:
//
//   - every key-value entry is out-of-place behind a pointer, so even
//     8-byte updates allocate and write a fresh record and every read
//     dereferences (more PM reads and writes than Spash, Fig 8, and no
//     CPU-cache absorption of hot updates, Fig 10);
//   - lookups probe up to four buckets across non-contiguous levels;
//   - like the original, semantics during a migration are relaxed:
//     concurrent duplicate inserts may briefly coexist (resolved by
//     delete/update passes);
//   - flush instructions are removed per the paper's methodology.
package clevel

import (
	"runtime"
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
	bucketBytes    = slotsPerBucket * 8 // 8-byte pointer slots
	initLevelBits  = 6
)

type level struct {
	addr    uint64
	buckets uint64
}

// ctab is the published level list, newest (insert target) first. Two
// levels normally, one more while the old bottom drains (and from then
// on, if a drain had to leave entries behind). drain is the address of
// the level a migration is emptying right now, 0 when none is: an
// insert that lands there may already be behind the migration cursor.
type ctab struct {
	levels []level
	drain  uint64
}

// CLevel is the index.
type CLevel struct {
	pool *pmem.Pool
	al   *alloc.Allocator
	grp  *vsync.Group

	tab      atomic.Pointer[ctab]
	resizing atomic.Int32

	entries atomic.Int64
}

// New creates a CLevel index.
func New(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator) (*CLevel, error) {
	t := &CLevel{pool: pool, al: al, grp: &vsync.Group{}}
	top, err := t.newLevel(c, 1<<initLevelBits)
	if err != nil {
		return nil, err
	}
	bottom, err := t.newLevel(c, 1<<(initLevelBits-1))
	if err != nil {
		return nil, err
	}
	t.tab.Store(&ctab{levels: []level{top, bottom}})
	return t, nil
}

func (t *CLevel) newLevel(c *pmem.Ctx, buckets uint64) (level, error) {
	addr, err := t.al.AllocRaw(c, buckets*bucketBytes)
	if err != nil {
		return level{}, err
	}
	return level{addr: addr, buckets: buckets}, nil
}

// Name implements ixapi.Index.
func (t *CLevel) Name() string { return "CLevel" }

// Len implements ixapi.Index.
func (t *CLevel) Len() int { return int(t.entries.Load()) }

// LoadFactor implements ixapi.Index.
func (t *CLevel) LoadFactor() float64 {
	var cap uint64
	for _, l := range t.tab.Load().levels {
		cap += l.buckets * slotsPerBucket
	}
	return float64(t.entries.Load()) / float64(cap)
}

// Pools implements ixapi.Index: one device.
func (t *CLevel) Pools() []*pmem.Pool { return []*pmem.Pool{t.pool} }

// Groups implements ixapi.Index: one serialisation domain.
func (t *CLevel) Groups() []*vsync.Group { return []*vsync.Group{t.grp} }

// Record layout: [u64 klen<<32|vlen][key, word-padded][val].
func pad8(n int) int { return (n + 7) &^ 7 }

func (t *CLevel) writeRecord(c *pmem.Ctx, ah *alloc.Handle, key, val []byte) (uint64, error) {
	size := 8 + pad8(len(key)) + pad8(len(val))
	addr, _, err := ah.Alloc(c, size)
	if err != nil {
		return 0, err
	}
	t.pool.Store64(c, addr, uint64(len(key))<<32|uint64(len(val)))
	t.pool.Write(c, addr+8, key)
	t.pool.Write(c, addr+8+uint64(pad8(len(key))), val)
	return addr, nil
}

func (t *CLevel) recordKeyMatches(c *pmem.Ctx, addr uint64, key []byte) bool {
	hdr := t.pool.Load64(c, addr)
	if int(hdr>>32) != len(key) {
		return false
	}
	buf := make([]byte, len(key))
	t.pool.Read(c, addr+8, buf)
	for i := range key {
		if buf[i] != key[i] {
			return false
		}
	}
	return true
}

func (t *CLevel) recordValue(c *pmem.Ctx, addr uint64, dst []byte) []byte {
	hdr := t.pool.Load64(c, addr)
	klen, vlen := int(hdr>>32), int(hdr&0xFFFFFFFF)
	if klen < 0 || klen > common.MaxKVLen || vlen < 0 || vlen > common.MaxKVLen {
		return dst
	}
	buf := make([]byte, vlen)
	t.pool.Read(c, addr+8+uint64(pad8(klen)), buf)
	return append(dst, buf...)
}

// Worker is the per-goroutine handle.
type Worker struct {
	t  *CLevel
	c  *pmem.Ctx
	ah *alloc.Handle
}

// NewWorker implements ixapi.Index.
func (t *CLevel) NewWorker() ixapi.Worker {
	return &Worker{t: t, c: t.pool.NewCtx(), ah: t.al.NewHandle()}
}

// ResetClock and Clock implement ixapi.Worker over the worker's one
// pmem context.
func (w *Worker) ResetClock()  { w.c.ResetClock() }
func (w *Worker) Clock() int64 { return w.c.Clock() }

// Close implements ixapi.Worker.
func (w *Worker) Close() { w.ah.Close() }

func hashes(key []byte) (uint64, uint64) {
	h1 := common.HashKey(key)
	return h1, hash.Sum64Uint64(h1 ^ 0xc3a5c85c97cb3127)
}

func slotAddr(l level, b uint64, s int) uint64 {
	return l.addr + b*bucketBytes + uint64(s)*8
}

// loadBucket reads the slots of bucket b of level l with one access to
// the cacheline holding them (two buckets share a line).
func (t *CLevel) loadBucket(c *pmem.Ctx, l level, b uint64) (slots [slotsPerBucket]uint64) {
	a := slotAddr(l, b, 0)
	line := t.pool.LoadLine(c, a)
	copy(slots[:], line[a%pmem.CachelineSize/8:])
	return slots
}

// findSlot locates key anywhere in the level list; returns the slot
// address and the record pointer.
func (w *Worker) findSlot(tab *ctab, h1, h2 uint64, key []byte) (uint64, uint64, bool) {
	t := w.t
	for _, l := range tab.levels {
		for _, b := range [2]uint64{h1 % l.buckets, h2 % l.buckets} {
			for s, p := range t.loadBucket(w.c, l, b) {
				if p != 0 && t.recordKeyMatches(w.c, p, key) {
					return slotAddr(l, b, s), p, true
				}
			}
		}
	}
	return 0, 0, false
}

// Search implements ixapi.Worker (lock-free; retries while a migration
// is in flight and the key is transiently unfindable).
func (w *Worker) Search(key, dst []byte) ([]byte, bool, error) {
	h1, h2 := hashes(key)
	for attempt := 0; ; attempt++ {
		tab := w.t.tab.Load()
		if _, p, ok := w.findSlot(tab, h1, h2, key); ok {
			return w.t.recordValue(w.c, p, dst), true, nil
		}
		if w.t.resizing.Load() == 0 || attempt > 3 {
			return dst, false, nil
		}
		runtime.Gosched()
	}
}

// Insert implements ixapi.Worker (upsert; CAS-based, lock-free).
func (w *Worker) Insert(key, val []byte) error {
	t := w.t
	h1, h2 := hashes(key)
	rec, err := t.writeRecord(w.c, w.ah, key, val)
	if err != nil {
		return err
	}
	for {
		tab := t.tab.Load()
		if sa, p, ok := w.findSlot(tab, h1, h2, key); ok {
			if p == rec {
				// Our own placement from an earlier pass, carried
				// here by a migration; it has not been counted yet.
				t.entries.Add(1)
				return nil
			}
			if t.pool.CAS64(w.c, sa, p, rec) {
				return nil
			}
			continue // raced; rescan
		}
		// Insert into the newest level only: the draining bottom
		// level must not receive new entries.
		l := tab.levels[0]
		var placedAt uint64
		for _, b := range [2]uint64{h1 % l.buckets, h2 % l.buckets} {
			if placedAt = t.claimFree(w.c, l, b, rec); placedAt != 0 {
				break
			}
		}
		if placedAt != 0 {
			// Re-check the published context: if our target level is
			// being drained (or was already dropped), the migration
			// cursor may have passed our slot. The placement must not be
			// undone: the migrator may already hold a copy of rec, would
			// take the cleared source slot for a racing update, and
			// would remove that copy — the only reference left. Wait the
			// migration out instead and look: either it carried rec
			// along, or rec sits in a dropped level and the insert
			// starts over.
			tab2 := t.tab.Load()
			safe := false
			for _, l2 := range tab2.levels {
				if l2.addr == l.addr && l.addr != tab2.drain {
					safe = true
				}
			}
			if !safe {
				for t.resizing.Load() != 0 {
					runtime.Gosched()
				}
				if _, _, ok := w.findSlot(t.tab.Load(), h1, h2, key); !ok {
					continue
				}
			}
			t.entries.Add(1)
			return nil
		}
		t.resize(w)
	}
}

// Update implements ixapi.Worker (out-of-place: a fresh record is
// CASed over the old pointer — CLevel's defining write behaviour).
func (w *Worker) Update(key, val []byte) (bool, error) {
	t := w.t
	h1, h2 := hashes(key)
	rec, err := t.writeRecord(w.c, w.ah, key, val)
	if err != nil {
		return false, err
	}
	for {
		tab := t.tab.Load()
		sa, p, ok := w.findSlot(tab, h1, h2, key)
		if !ok {
			return false, nil
		}
		if t.pool.CAS64(w.c, sa, p, rec) {
			return true, nil
		}
	}
}

// Delete implements ixapi.Worker (removes every replica, since
// migrations and races may briefly duplicate an entry).
func (w *Worker) Delete(key []byte) (bool, error) {
	t := w.t
	h1, h2 := hashes(key)
	found := false
	for {
		tab := t.tab.Load()
		sa, p, ok := w.findSlot(tab, h1, h2, key)
		if !ok {
			if found {
				t.entries.Add(-1)
			}
			return found, nil
		}
		if t.pool.CAS64(w.c, sa, p, 0) {
			found = true
		}
	}
}

// resize grows the table: a doubled top level is published (so
// concurrent inserts immediately find space), then the old bottom is
// drained into the new top, then the shortened list is published.
func (t *CLevel) resize(w *Worker) {
	if !t.resizing.CompareAndSwap(0, 1) {
		// Another thread is resizing; wait for the new top to appear.
		for t.resizing.Load() != 0 {
			runtime.Gosched()
		}
		return
	}
	defer t.resizing.Store(0)
	old := t.tab.Load()
	top := old.levels[0]
	bottom := old.levels[len(old.levels)-1]
	newTop, err := t.newLevel(w.c, top.buckets*2)
	if err != nil {
		return
	}
	mid := &ctab{levels: append([]level{newTop}, old.levels...), drain: bottom.addr}
	t.tab.Store(mid)

	// Drain the bottom level into the new top, reading each bucket once.
	drained := true
	for b := uint64(0); b < bottom.buckets; b++ {
		for s, p := range t.loadBucket(w.c, bottom, b) {
			sa := slotAddr(bottom, b, s)
			for p != 0 {
				copyAt := t.migrate(w, newTop, p)
				if copyAt == 0 {
					// No room in the new top (pathological): leave the
					// entry in place and keep the bottom level alive.
					drained = false
					break
				}
				if t.pool.CAS64(w.c, sa, p, 0) {
					break
				}
				// The slot changed under us (an update raced): undo
				// the copy and retry with the fresh pointer.
				t.pool.CAS64(w.c, copyAt, p, 0)
				p = t.pool.Load64(w.c, sa)
			}
		}
	}
	levels := mid.levels
	if drained {
		levels = levels[:len(levels)-1]
	}
	t.tab.Store(&ctab{levels: levels})
}

// migrate CASes record p into a free new-top slot, returning the slot
// address (0 if no space — the entry then simply stays reachable via
// its record until a later resize; extremely unlikely with a doubled
// level).
func (t *CLevel) migrate(w *Worker, l level, p uint64) uint64 {
	hdr := t.pool.Load64(w.c, p)
	klen := int(hdr >> 32)
	if klen < 0 || klen > common.MaxKVLen {
		return 0
	}
	key := make([]byte, klen)
	t.pool.Read(w.c, p+8, key)
	h1, h2 := hashes(key)
	for _, b := range [2]uint64{h1 % l.buckets, h2 % l.buckets} {
		if sa := t.claimFree(w.c, l, b, p); sa != 0 {
			return sa
		}
	}
	return 0
}

// claimFree CASes record p into the first slot of bucket b of level l
// that reads empty, reading the bucket once; it returns the slot address,
// 0 when every slot was taken.
func (t *CLevel) claimFree(c *pmem.Ctx, l level, b, p uint64) uint64 {
	for s, cur := range t.loadBucket(c, l, b) {
		if sa := slotAddr(l, b, s); cur == 0 && t.pool.CAS64(c, sa, 0, p) {
			return sa
		}
	}
	return 0
}
