// Package cceh reimplements CCEH (Nam et al., FAST'19), the
// cacheline-conscious extendible hashing baseline: a persistent MSB
// directory over large (16 KB) segments of cacheline-sized buckets
// with bounded linear probing, per-segment reader-writer locks, lazy
// deletion, and copy-based segment splits.
//
// The aspects that drive the paper's comparison are kept faithfully:
//
//   - the directory lives in PM, so step 1 of every operation is a PM
//     read (Spash keeps its directory in DRAM);
//   - the local depth lives in the segment header, adding PM reads on
//     the split path;
//   - read-write locks are taken for reads AND writes, and the lock
//     words live in PM, so even searches generate PM write traffic
//     (§VI-B: "Level hashing and CCEH produce PM writes to maintain
//     read locks");
//   - the bounded probe window (4 cachelines) forces early splits,
//     giving CCEH its characteristically low load factor (Fig 9);
//   - per the paper's methodology, flush instructions are removed.
package cceh

import (
	"errors"
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
	slotsPerBucket  = 4
	bucketsPerSeg   = 256
	slotsPerSeg     = bucketsPerSeg * slotsPerBucket // 1024
	slotBytes       = 16
	headerBytes     = 256 // one XPLine: [depth][lock word][pad]
	segBytes        = headerBytes + slotsPerSeg*slotBytes
	probeBuckets    = 4 // bounded linear probing window
	segLockStripes  = 1024
	initGlobalDepth = 2
)

// dirMeta is the published directory descriptor: readers resolve it
// lock-free (as the original does, via its persistent directory) and
// revalidate after taking the segment lock.
type dirMeta struct {
	addr  uint64
	depth uint
}

// CCEH is the index.
type CCEH struct {
	pool *pmem.Pool
	al   *alloc.Allocator
	grp  *vsync.Group

	// meta is the current directory descriptor (lock-free reads).
	meta atomic.Pointer[dirMeta]
	// structMu coordinates splits (shared) with directory doubling
	// (exclusive). It is deliberately NOT a vsync lock: base
	// operations never take it, so it contributes no per-op
	// serialisation — matching the original, whose directory reads
	// are unsynchronised.
	structMu sync.RWMutex

	segLocks [segLockStripes]vsync.RWMutex

	entries  atomic.Int64
	segments atomic.Int64
}

// New creates a CCEH index on a fresh pool (the allocator must already
// be formatted).
func New(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator) (*CCEH, error) {
	t := &CCEH{pool: pool, al: al, grp: &vsync.Group{}}
	for i := range t.segLocks {
		t.segLocks[i].G = t.grp
	}
	dir, err := al.AllocRaw(c, (8 << initGlobalDepth))
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < 1<<initGlobalDepth; i++ {
		seg, err := t.newSegment(c, initGlobalDepth)
		if err != nil {
			return nil, err
		}
		pool.Store64(c, dir+i*8, seg)
	}
	t.meta.Store(&dirMeta{addr: dir, depth: initGlobalDepth})
	return t, nil
}

func (t *CCEH) newSegment(c *pmem.Ctx, depth uint) (uint64, error) {
	seg, err := t.al.AllocRaw(c, segBytes)
	if err != nil {
		return 0, err
	}
	t.pool.Store64(c, seg, uint64(depth))
	// Fresh raw spans are zero; no further initialisation needed.
	t.segments.Add(1)
	return seg, nil
}

// Name implements ixapi.Index.
func (t *CCEH) Name() string { return "CCEH" }

// Len implements ixapi.Index.
func (t *CCEH) Len() int { return int(t.entries.Load()) }

// LoadFactor implements ixapi.Index.
func (t *CCEH) LoadFactor() float64 {
	segs := t.segments.Load()
	if segs == 0 {
		return 0
	}
	return float64(t.entries.Load()) / float64(segs*slotsPerSeg)
}

// Pools implements ixapi.Index: one device.
func (t *CCEH) Pools() []*pmem.Pool { return []*pmem.Pool{t.pool} }

// Groups implements ixapi.Index: one serialisation domain.
func (t *CCEH) Groups() []*vsync.Group { return []*vsync.Group{t.grp} }

func (t *CCEH) segLock(seg uint64) *vsync.RWMutex {
	return &t.segLocks[(seg/segBytes)%segLockStripes]
}

func slotAddr(seg uint64, slot int) uint64 {
	return seg + headerBytes + uint64(slot)*slotBytes
}

// Worker is the per-goroutine handle.
type Worker struct {
	t  *CCEH
	c  *pmem.Ctx
	ah *alloc.Handle
}

// NewWorker implements ixapi.Index.
func (t *CCEH) NewWorker() ixapi.Worker {
	return &Worker{t: t, c: t.pool.NewCtx(), ah: t.al.NewHandle()}
}

// ResetClock and Clock implement ixapi.Worker over the worker's one
// pmem context.
func (w *Worker) ResetClock()  { w.c.ResetClock() }
func (w *Worker) Clock() int64 { return w.c.Clock() }

// Close implements ixapi.Worker.
func (w *Worker) Close() { w.ah.Close() }

// lookupSeg resolves the segment for h through the given directory
// descriptor. The directory read is a PM access, as in the original.
func (w *Worker) lookupSeg(m *dirMeta, h uint64) uint64 {
	return w.t.pool.Load64(w.c, m.addr+hash.Prefix(h, m.depth)*8)
}

// probe scans the bounded probe window for key, reading each bucket's
// cacheline once; returns the slot index and value word, or -1.
func (w *Worker) probe(seg uint64, h uint64, key []byte) (int, uint64) {
	t := w.t
	b := int(h % bucketsPerSeg)
	for off := 0; off < probeBuckets; off++ {
		bb := (b + off) % bucketsPerSeg
		l := t.pool.LoadLine(w.c, slotAddr(seg, bb*slotsPerBucket))
		for i := 0; i < slotsPerBucket; i++ {
			if kw := l[2*i]; common.IsOccupied(kw) && common.KeyWordMatches(w.c, t.pool, kw, key) {
				return bb*slotsPerBucket + i, l[2*i+1]
			}
		}
	}
	return -1, 0
}

// freeSlot finds a free slot in the probe window, reading each bucket's
// cacheline once, or -1.
func (w *Worker) freeSlot(seg uint64, h uint64) int {
	t := w.t
	b := int(h % bucketsPerSeg)
	for off := 0; off < probeBuckets; off++ {
		bb := (b + off) % bucketsPerSeg
		l := t.pool.LoadLine(w.c, slotAddr(seg, bb*slotsPerBucket))
		for i := 0; i < slotsPerBucket; i++ {
			if !common.IsOccupied(l[2*i]) {
				return bb*slotsPerBucket + i
			}
		}
	}
	return -1
}

// withSeg runs fn with the segment for h locked (shared or exclusive),
// revalidating the directory entry after acquiring the lock. fn may
// return errRetry to restart.
var errRetry = errors.New("cceh: retry")

func (w *Worker) withSeg(h uint64, exclusive bool, fn func(seg uint64) error) error {
	t := w.t
	for {
		m := t.meta.Load()
		seg := w.lookupSeg(m, h)
		lk := t.segLock(seg)
		if exclusive {
			lk.Lock(w.c)
		} else {
			lk.RLock(w.c)
		}
		// Lock maintenance writes hit PM (lock word in the header).
		common.PMLockTraffic(w.c, t.pool, seg+8)
		err := errRetry
		// Revalidate under the lock: the directory may have doubled
		// (stale descriptor) or the segment may have split.
		if t.meta.Load() == m && w.lookupSeg(m, h) == seg {
			err = fn(seg)
		}
		common.PMLockTraffic(w.c, t.pool, seg+8)
		if exclusive {
			lk.Unlock(w.c)
		} else {
			lk.RUnlock(w.c)
		}
		if err == errRetry {
			continue
		}
		return err
	}
}

// Search implements ixapi.Worker.
func (w *Worker) Search(key, dst []byte) ([]byte, bool, error) {
	h := common.HashKey(key)
	var out []byte
	found := false
	err := w.withSeg(h, false, func(seg uint64) error {
		found = false
		s, vw := w.probe(seg, h, key)
		if s < 0 {
			return nil
		}
		out = common.LoadValueWord(w.c, w.t.pool, vw, dst)
		found = true
		return nil
	})
	if err != nil || !found {
		return dst, false, err
	}
	return out, true, nil
}

// Insert implements ixapi.Worker (upsert, like the extended baseline).
func (w *Worker) Insert(key, val []byte) error {
	t := w.t
	h := common.HashKey(key)
	kw, vw, _, _, err := common.EncodeKV(w.c, t.pool, w.ah, key, val)
	if err != nil {
		return err
	}
	for {
		full := false
		err := w.withSeg(h, true, func(seg uint64) error {
			if s, _ := w.probe(seg, h, key); s >= 0 {
				t.pool.Store64(w.c, slotAddr(seg, s)+8, vw)
				return nil
			}
			s := w.freeSlot(seg, h)
			if s < 0 {
				full = true
				return nil
			}
			t.pool.Store64(w.c, slotAddr(seg, s)+8, vw)
			t.pool.Store64(w.c, slotAddr(seg, s), kw)
			t.entries.Add(1)
			return nil
		})
		if err != nil {
			return err
		}
		if !full {
			return nil
		}
		if err := w.split(h); err != nil {
			return err
		}
	}
}

// Update implements ixapi.Worker (out-of-place value replacement, as
// in the paper's extended baselines).
func (w *Worker) Update(key, val []byte) (bool, error) {
	t := w.t
	h := common.HashKey(key)
	vp, vi := common.InlinePayload(val)
	var vrec uint64
	if !vi {
		var err error
		vrec, err = common.WriteRecord(w.c, t.pool, w.ah, val)
		if err != nil {
			return false, err
		}
		vp = vrec
	}
	vw := common.MakeWord(vi, vp)
	found := false
	err := w.withSeg(h, true, func(seg uint64) error {
		found = false
		s, _ := w.probe(seg, h, key)
		if s < 0 {
			return nil
		}
		found = true
		t.pool.Store64(w.c, slotAddr(seg, s)+8, vw)
		return nil
	})
	if err == nil && !found && vrec != 0 {
		common.FreeRecord(w.c, w.ah, vrec, len(val))
	}
	return found, err
}

// Delete implements ixapi.Worker (lazy deletion: the slot is cleared,
// segments are never merged).
func (w *Worker) Delete(key []byte) (bool, error) {
	t := w.t
	h := common.HashKey(key)
	found := false
	err := w.withSeg(h, true, func(seg uint64) error {
		found = false
		s, _ := w.probe(seg, h, key)
		if s < 0 {
			return nil
		}
		found = true
		t.pool.Store64(w.c, slotAddr(seg, s), 0)
		return nil
	})
	if err == nil && found {
		t.entries.Add(-1)
	}
	return found, err
}

// split divides the segment for h, copying entries whose next prefix
// bit is set into a new segment and updating the PM directory.
func (w *Worker) split(h uint64) error {
	t := w.t
	for {
		t.structMu.RLock()
		m := t.meta.Load()
		seg := w.lookupSeg(m, h)
		lk := t.segLock(seg)
		lk.Lock(w.c)
		common.PMLockTraffic(w.c, t.pool, seg+8)
		if t.meta.Load() != m || w.lookupSeg(m, h) != seg {
			common.PMLockTraffic(w.c, t.pool, seg+8)
			lk.Unlock(w.c)
			t.structMu.RUnlock()
			continue // another thread split or doubled first
		}
		depth := uint(t.pool.Load64(w.c, seg))
		if depth == m.depth {
			common.PMLockTraffic(w.c, t.pool, seg+8)
			lk.Unlock(w.c)
			t.structMu.RUnlock()
			t.double(w)
			continue
		}
		newSeg, err := t.newSegment(w.c, depth+1)
		if err != nil {
			common.PMLockTraffic(w.c, t.pool, seg+8)
			lk.Unlock(w.c)
			t.structMu.RUnlock()
			return err
		}
		// Move entries whose next prefix bit is 1 (re-hashing inline
		// keys; dereferencing key records, extra PM reads as in the
		// original), reading each bucket's cacheline once.
		var l pmem.Line
		for s := 0; s < slotsPerSeg; s++ {
			if s%slotsPerBucket == 0 {
				l = t.pool.LoadLine(w.c, slotAddr(seg, s))
			}
			kw, vw := l[2*(s%slotsPerBucket)], l[2*(s%slotsPerBucket)+1]
			if !common.IsOccupied(kw) {
				continue
			}
			var kh uint64
			if common.IsInline(kw) {
				var b [8]byte
				putLE64(b[:], common.PayloadOf(kw))
				kh = common.HashKey(b[:])
			} else {
				buf := common.ReadRecord(w.c, t.pool, common.PayloadOf(kw), nil)
				kh = common.HashKey(buf)
			}
			if kh>>(63-depth)&1 == 1 {
				t.pool.Store64(w.c, slotAddr(newSeg, s)+8, vw)
				t.pool.Store64(w.c, slotAddr(newSeg, s), kw)
				t.pool.Store64(w.c, slotAddr(seg, s), 0)
			}
		}
		t.pool.Store64(w.c, seg, uint64(depth+1))
		// Repoint the upper half of the covering directory range.
		prefix := hash.Prefix(h, depth)
		base := prefix << (m.depth - depth)
		n := uint64(1) << (m.depth - depth)
		for j := n / 2; j < n; j++ {
			t.pool.Store64(w.c, m.addr+(base+j)*8, newSeg)
		}
		common.PMLockTraffic(w.c, t.pool, seg+8)
		lk.Unlock(w.c)
		t.structMu.RUnlock()
		return nil
	}
}

// double doubles the PM directory, excluding splits (which write
// directory entries) while the copy runs.
func (t *CCEH) double(w *Worker) {
	t.structMu.Lock()
	defer t.structMu.Unlock()
	m := t.meta.Load()
	if m.depth >= 44 {
		return
	}
	nd, err := t.al.AllocRaw(w.c, uint64(8)<<(m.depth+1))
	if err != nil {
		return
	}
	for i := uint64(0); i < 1<<m.depth; i++ {
		e := t.pool.Load64(w.c, m.addr+i*8)
		t.pool.Store64(w.c, nd+2*i*8, e)
		t.pool.Store64(w.c, nd+(2*i+1)*8, e)
	}
	t.meta.Store(&dirMeta{addr: nd, depth: m.depth + 1})
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
