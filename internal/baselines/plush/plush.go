// Package plush reimplements Plush (Vogel et al., VLDB'22), the
// write-optimised LSM-style persistent hash table: writes land in a
// DRAM buffer backed by a PM write-ahead log and are flushed in bulk
// into a hierarchy of PM hash-table levels with fanout 16; full levels
// merge downward.
//
// What drives the paper's comparison:
//
//   - inserts are buffered and sequential (fast load phase, Fig 10/11)
//     but every flush and merge rewrites entries, so total PM writes
//     exceed Spash's (Fig 8b);
//   - a lookup walks the buffer and then O(log N) levels, newest
//     first — the worst search cost of all compared systems (Fig 7a);
//   - writes serialise on per-partition locks and the WAL;
//   - deletes are tombstones that persist until they reach the deepest
//     level, so the live-entry count is only settled by merges (Len is
//     approximate, as in any LSM);
//   - flush instructions are removed per the paper's methodology.
package plush

import (
	"sync/atomic"

	"spash/internal/alloc"
	"spash/internal/baselines/common"
	"spash/internal/ixapi"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

const (
	partitions     = 64
	bufCap         = 512
	walBytes       = 1 << 20
	slotsPerBucket = 4
	bucketBytes    = slotsPerBucket * 16
	level0Buckets  = 256
	fanout         = 16

	// tombstone marks a buffered/stored delete.
	tombstone = uint64(1) << 61
)

type plevel struct {
	addr    uint64
	buckets uint64
}

type bufEnt struct {
	key  []byte
	kw   uint64 // encoded key word (records already written)
	vw   uint64 // value word; ignored when dead
	dead bool
}

type partition struct {
	mu  vsync.RWMutex
	buf map[string]bufEnt
	// order lists buf's keys by first insertion: flush drains in this
	// order, so the PM access sequence is a function of the op stream
	// and not of Go's randomised map iteration.
	order   []string
	walAddr uint64
	walOff  uint64
	levels  []plevel
}

// Plush is the index.
type Plush struct {
	pool *pmem.Pool
	al   *alloc.Allocator
	grp  *vsync.Group

	parts [partitions]partition

	entries atomic.Int64 // approximate (see package doc)
	slots   atomic.Int64 // total level slots, for LoadFactor
}

// New creates a Plush index.
func New(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator) (*Plush, error) {
	t := &Plush{pool: pool, al: al, grp: &vsync.Group{}}
	for i := range t.parts {
		p := &t.parts[i]
		p.mu.G = t.grp
		p.buf = make(map[string]bufEnt, bufCap)
		wal, err := al.AllocRaw(c, walBytes)
		if err != nil {
			return nil, err
		}
		p.walAddr = wal
		l0, err := t.newLevel(c, level0Buckets)
		if err != nil {
			return nil, err
		}
		p.levels = []plevel{l0}
	}
	return t, nil
}

func (t *Plush) newLevel(c *pmem.Ctx, buckets uint64) (plevel, error) {
	addr, err := t.al.AllocRaw(c, buckets*bucketBytes)
	if err != nil {
		return plevel{}, err
	}
	t.slots.Add(int64(buckets * slotsPerBucket))
	return plevel{addr: addr, buckets: buckets}, nil
}

// Name implements ixapi.Index.
func (t *Plush) Name() string { return "Plush" }

// Len implements ixapi.Index (approximate: tombstones and cross-level
// duplicates settle at merge time; the harness's table entry says so
// and the conformance suite skips its exact-count assertions).
func (t *Plush) Len() int { return int(t.entries.Load()) }

// LoadFactor implements ixapi.Index.
func (t *Plush) LoadFactor() float64 {
	s := t.slots.Load()
	if s == 0 {
		return 0
	}
	n := t.entries.Load()
	if n < 0 {
		n = 0
	}
	return float64(n) / float64(s)
}

// Pools implements ixapi.Index: one device.
func (t *Plush) Pools() []*pmem.Pool { return []*pmem.Pool{t.pool} }

// Groups implements ixapi.Index: one serialisation domain.
func (t *Plush) Groups() []*vsync.Group { return []*vsync.Group{t.grp} }

// Worker is the per-goroutine handle.
type Worker struct {
	t  *Plush
	c  *pmem.Ctx
	ah *alloc.Handle
}

// NewWorker implements ixapi.Index.
func (t *Plush) NewWorker() ixapi.Worker {
	return &Worker{t: t, c: t.pool.NewCtx(), ah: t.al.NewHandle()}
}

// ResetClock and Clock implement ixapi.Worker over the worker's one
// pmem context.
func (w *Worker) ResetClock()  { w.c.ResetClock() }
func (w *Worker) Clock() int64 { return w.c.Clock() }

// Close implements ixapi.Worker.
func (w *Worker) Close() { w.ah.Close() }

func partOf(h uint64) int { return int(h >> (64 - 6)) }

func slotAddr(l plevel, b uint64, s int) uint64 {
	return l.addr + b*bucketBytes + uint64(s)*16
}

// walAppend logs a write-ahead record for the buffered mutation.
func (w *Worker) walAppend(p *partition, key, val []byte) {
	n := uint64(8 + len(key) + len(val))
	n = (n + 7) &^ 7
	if p.walOff+n > walBytes {
		p.walOff = 0 // wrap: the buffer is flushed long before this in practice
	}
	a := p.walAddr + p.walOff
	w.t.pool.Store64(w.c, a, uint64(len(key))<<32|uint64(len(val)))
	w.t.pool.Write(w.c, a+8, key)
	if len(val) > 0 {
		w.t.pool.Write(w.c, a+8+uint64(len(key)), val)
	}
	p.walOff += n
}

// bufferWrite applies one mutation to the partition buffer, flushing
// it to level 0 when full. Caller holds the partition write lock.
func (w *Worker) bufferWrite(p *partition, key []byte, e bufEnt) error {
	w.c.ChargeDRAM(2)
	if _, ok := p.buf[string(key)]; !ok {
		p.order = append(p.order, string(key))
	}
	p.buf[string(key)] = e
	if len(p.buf) >= bufCap {
		return w.flush(p)
	}
	return nil
}

// Insert implements ixapi.Worker.
func (w *Worker) Insert(key, val []byte) error {
	h := common.HashKey(key)
	p := &w.t.parts[partOf(h)]
	kw, vw, _, _, err := common.EncodeKV(w.c, w.t.pool, w.ah, key, val)
	if err != nil {
		return err
	}
	p.mu.Lock(w.c)
	defer p.mu.Unlock(w.c)
	w.walAppend(p, key, val)
	w.t.entries.Add(1) // approximate: duplicates settle at merges
	if old, ok := p.buf[string(key)]; ok && !old.dead {
		w.t.entries.Add(-1)
	}
	return w.bufferWrite(p, key, bufEnt{key: append([]byte(nil), key...), kw: kw, vw: vw})
}

// Update implements ixapi.Worker (Plush updates are out-of-place
// buffered writes; absent keys are detected by a lookup first).
func (w *Worker) Update(key, val []byte) (bool, error) {
	h := common.HashKey(key)
	p := &w.t.parts[partOf(h)]
	p.mu.Lock(w.c)
	defer p.mu.Unlock(w.c)
	if _, ok := w.lookupLocked(p, h, key, nil); !ok {
		return false, nil
	}
	kw, vw, _, _, err := common.EncodeKV(w.c, w.t.pool, w.ah, key, val)
	if err != nil {
		return false, err
	}
	w.walAppend(p, key, val)
	return true, w.bufferWrite(p, key, bufEnt{key: append([]byte(nil), key...), kw: kw, vw: vw})
}

// Delete implements ixapi.Worker (tombstone).
func (w *Worker) Delete(key []byte) (bool, error) {
	h := common.HashKey(key)
	p := &w.t.parts[partOf(h)]
	p.mu.Lock(w.c)
	defer p.mu.Unlock(w.c)
	if _, ok := w.lookupLocked(p, h, key, nil); !ok {
		return false, nil
	}
	kp, ki := common.InlinePayload(key)
	if !ki {
		rec, err := common.WriteRecord(w.c, w.t.pool, w.ah, key)
		if err != nil {
			return false, err
		}
		kp = rec
	}
	w.walAppend(p, key, nil)
	w.t.entries.Add(-1)
	return true, w.bufferWrite(p, key, bufEnt{key: append([]byte(nil), key...), kw: common.MakeWord(ki, kp) | tombstone, dead: true})
}

// Search implements ixapi.Worker.
func (w *Worker) Search(key, dst []byte) ([]byte, bool, error) {
	h := common.HashKey(key)
	p := &w.t.parts[partOf(h)]
	p.mu.RLock(w.c)
	defer p.mu.RUnlock(w.c)
	out, ok := w.lookupLocked(p, h, key, dst)
	if !ok {
		return dst, false, nil
	}
	return out, true, nil
}

// lookupLocked resolves key under the partition lock: buffer first,
// then every level newest-first (the O(levels) traversal the paper
// highlights).
func (w *Worker) lookupLocked(p *partition, h uint64, key, dst []byte) ([]byte, bool) {
	w.c.ChargeDRAM(2)
	if e, ok := p.buf[string(key)]; ok {
		if e.dead {
			return nil, false
		}
		return common.LoadValueWord(w.c, w.t.pool, e.vw, dst), true
	}
	for _, l := range p.levels {
		line := w.t.pool.LoadLine(w.c, slotAddr(l, h%l.buckets, 0))
		for s := 0; s < slotsPerBucket; s++ {
			kw := line[2*s]
			if !common.IsOccupied(kw) {
				continue
			}
			if common.KeyWordMatches(w.c, w.t.pool, kw&^tombstone, key) {
				if kw&tombstone != 0 {
					return nil, false
				}
				return common.LoadValueWord(w.c, w.t.pool, line[2*s+1], dst), true
			}
		}
	}
	return nil, false
}

// flush moves the buffer into level 0, cascading merges when levels
// fill, then resets the buffer and the WAL.
func (w *Worker) flush(p *partition) error {
	for _, k := range p.order {
		e := p.buf[k]
		if err := w.insertLevel(p, 0, common.HashKey(e.key), e.kw, e.vw); err != nil {
			return err
		}
	}
	p.buf = make(map[string]bufEnt, bufCap)
	p.order = p.order[:0]
	p.walOff = 0
	return nil
}

// insertLevel places an entry into level li, replacing an existing
// version of the same key in the target bucket, merging downward when
// the bucket is full. Tombstones are dropped when they reach the
// deepest level with no older version beneath.
func (w *Worker) insertLevel(p *partition, li int, h uint64, kw, vw uint64) error {
	t := w.t
	for {
		l := p.levels[li]
		b := h % l.buckets
		key := w.keyOf(kw)
		free := -1
		line := t.pool.LoadLine(w.c, slotAddr(l, b, 0))
		for s := 0; s < slotsPerBucket; s++ {
			cur := line[2*s]
			if !common.IsOccupied(cur) {
				if free < 0 {
					free = s
				}
				continue
			}
			if common.KeyWordMatches(w.c, t.pool, cur&^tombstone, key) {
				// Newer version wins; a tombstone replaces (and keeps
				// shadowing deeper copies).
				t.pool.Store64(w.c, slotAddr(l, b, s)+8, vw)
				t.pool.Store64(w.c, slotAddr(l, b, s), kw)
				return nil
			}
		}
		if kw&tombstone != 0 && li == len(p.levels)-1 {
			// Deepest level and nothing to shadow: drop the tombstone.
			return nil
		}
		if free >= 0 {
			t.pool.Store64(w.c, slotAddr(l, b, free)+8, vw)
			t.pool.Store64(w.c, slotAddr(l, b, free), kw)
			return nil
		}
		// Bucket full: merge this whole level downward, then retry.
		if err := w.mergeDown(p, li); err != nil {
			return err
		}
	}
}

// keyOf materialises the key bytes of a key word.
func (w *Worker) keyOf(kw uint64) []byte {
	kw &^= tombstone
	if common.IsInline(kw) {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(common.PayloadOf(kw) >> (8 * i))
		}
		return b
	}
	return common.ReadRecord(w.c, w.t.pool, common.PayloadOf(kw), nil)
}

// mergeDown rewrites every entry of level li into level li+1 (growing
// the hierarchy when needed) — the bulk PM writes that dominate
// Plush's write amplification.
func (w *Worker) mergeDown(p *partition, li int) error {
	t := w.t
	if li+1 == len(p.levels) {
		nl, err := t.newLevel(w.c, p.levels[li].buckets*fanout)
		if err != nil {
			return err
		}
		p.levels = append(p.levels, nl)
	}
	l := p.levels[li]
	for b := uint64(0); b < l.buckets; b++ {
		line := t.pool.LoadLine(w.c, slotAddr(l, b, 0))
		for s := 0; s < slotsPerBucket; s++ {
			kw, vw := line[2*s], line[2*s+1]
			if !common.IsOccupied(kw) {
				continue
			}
			h := common.HashKey(w.keyOf(kw))
			if err := w.insertLevel(p, li+1, h, kw, vw); err != nil {
				return err
			}
			t.pool.Store64(w.c, slotAddr(l, b, s), 0)
		}
	}
	return nil
}
