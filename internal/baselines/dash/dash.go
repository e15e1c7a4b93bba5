// Package dash reimplements Dash (Lu et al., VLDB'20), the
// state-of-the-art extendible hash baseline: 16 KB segments of 256-
// byte buckets with in-bucket metadata (allocation bitmap, one-byte
// fingerprints, a version word), balanced inserts across a target and
// a probing bucket, displacement, stash buckets for overflow, and
// optimistic lock-free reads with lock-based writes.
//
// What drives the paper's comparison:
//
//   - every operation reads 256-byte buckets and their metadata, so
//     searches cost multiple XPLine accesses (Fig 8a);
//   - inserts update bitmap + fingerprint + version metadata in
//     addition to the slot, costing extra PM writes (Fig 8b);
//   - reads are lock-free (seqlock-validated) but writes serialise on
//     per-segment locks, hurting write-intensive workloads (Fig 10);
//   - the persistent directory adds a PM read to every operation;
//   - flush instructions are removed per the paper's methodology.
package dash

import (
	"errors"
	"math/bits"
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
	slotsPerBucket = 14
	bucketBytes    = 256 // [version][bitmap|flags][fp x14 + pad][14 slots]
	normalBuckets  = 60
	stashBuckets   = 4
	totalBuckets   = normalBuckets + stashBuckets
	headerBytes    = 256
	segBytes       = headerBytes + totalBuckets*bucketBytes
	segLockStripes = 1024
	initDepth      = 2

	offVersion = 0
	offBitmap  = 8
	offFP      = 16 // 14 fingerprint bytes in two words
	offSlots   = 32
	// overflowFlag in the bitmap word marks that entries homing in
	// this bucket live in the stash.
	overflowFlag = uint64(1) << 32
)

// dirMeta is the published directory descriptor; resolved lock-free
// and revalidated under the segment lock (or the bucket seqlock for
// reads), like the original's persistent directory.
type dirMeta struct {
	addr  uint64
	depth uint
}

// Dash is the index.
type Dash struct {
	pool *pmem.Pool
	al   *alloc.Allocator
	grp  *vsync.Group

	meta atomic.Pointer[dirMeta]
	// structMu coordinates splits (shared) with doubling (exclusive);
	// base operations never touch it.
	structMu sync.RWMutex

	segLocks [segLockStripes]vsync.Mutex

	entries  atomic.Int64
	segments atomic.Int64
}

// New creates a Dash index.
func New(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator) (*Dash, error) {
	t := &Dash{pool: pool, al: al, grp: &vsync.Group{}}
	for i := range t.segLocks {
		t.segLocks[i].G = t.grp
	}
	dir, err := al.AllocRaw(c, 8<<initDepth)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < 1<<initDepth; i++ {
		seg, err := t.newSegment(c, initDepth)
		if err != nil {
			return nil, err
		}
		pool.Store64(c, dir+i*8, seg)
	}
	t.meta.Store(&dirMeta{addr: dir, depth: initDepth})
	return t, nil
}

func (t *Dash) newSegment(c *pmem.Ctx, depth uint) (uint64, error) {
	seg, err := t.al.AllocRaw(c, segBytes)
	if err != nil {
		return 0, err
	}
	t.pool.Store64(c, seg, uint64(depth))
	t.segments.Add(1)
	return seg, nil
}

// Name implements ixapi.Index.
func (t *Dash) Name() string { return "Dash" }

// Len implements ixapi.Index.
func (t *Dash) Len() int { return int(t.entries.Load()) }

// LoadFactor implements ixapi.Index.
func (t *Dash) LoadFactor() float64 {
	segs := t.segments.Load()
	if segs == 0 {
		return 0
	}
	return float64(t.entries.Load()) / float64(segs*totalBuckets*slotsPerBucket)
}

// Pools implements ixapi.Index: one device.
func (t *Dash) Pools() []*pmem.Pool { return []*pmem.Pool{t.pool} }

// Groups implements ixapi.Index: one serialisation domain.
func (t *Dash) Groups() []*vsync.Group { return []*vsync.Group{t.grp} }

func (t *Dash) segLock(seg uint64) *vsync.Mutex {
	return &t.segLocks[(seg/segBytes)%segLockStripes]
}

func bucketAddr(seg uint64, b int) uint64 {
	return seg + headerBytes + uint64(b)*bucketBytes
}

func slotAddr(seg uint64, b, s int) uint64 {
	return bucketAddr(seg, b) + offSlots + uint64(s)*16
}

// fingerprint of a hash (one byte, never zero so stored bytes are
// comparable without the bitmap).
func fingerprint(h uint64) byte {
	f := byte(h >> 48)
	if f == 0 {
		f = 1
	}
	return f
}

// Worker is the per-goroutine handle.
type Worker struct {
	t  *Dash
	c  *pmem.Ctx
	ah *alloc.Handle
}

// NewWorker implements ixapi.Index.
func (t *Dash) NewWorker() ixapi.Worker {
	return &Worker{t: t, c: t.pool.NewCtx(), ah: t.al.NewHandle()}
}

// ResetClock and Clock implement ixapi.Worker over the worker's one
// pmem context.
func (w *Worker) ResetClock()  { w.c.ResetClock() }
func (w *Worker) Clock() int64 { return w.c.Clock() }

// Close implements ixapi.Worker.
func (w *Worker) Close() { w.ah.Close() }

func (w *Worker) lookupSeg(m *dirMeta, h uint64) uint64 {
	return w.t.pool.Load64(w.c, m.addr+hash.Prefix(h, m.depth)*8)
}

// bucketLines reads a 256-byte bucket's four cachelines on demand, each
// at most once: head, the first, holds the version, the bitmap, the
// fingerprints and slots 0-1, and is read when the bucket is opened; a
// later slot's line is read when the slot is first asked for.
type bucketLines struct {
	addr uint64
	head pmem.Line
	cur  pmem.Line
	at   int // index of the line in cur; 0: none yet
}

// openBucket reads bucket b's first cacheline.
func (w *Worker) openBucket(seg uint64, b int) bucketLines {
	a := bucketAddr(seg, b)
	return bucketLines{addr: a, head: w.t.pool.LoadLine(w.c, a)}
}

func (bl *bucketLines) bitmap() uint64 { return bl.head[offBitmap/8] }

// fp returns the fingerprint byte of slot s.
func (bl *bucketLines) fp(s int) byte {
	return byte(bl.head[offFP/8+s/8] >> (8 * uint(s%8)))
}

// slot returns slot s's key and value words, reading its cacheline if no
// earlier slot asked for it. Slots are asked for in ascending order.
func (bl *bucketLines) slot(w *Worker, s int) (kw, vw uint64) {
	off := offSlots + s*16
	l := &bl.head
	if i := off / pmem.CachelineSize; i > 0 {
		if i != bl.at {
			bl.cur, bl.at = w.t.pool.LoadLine(w.c, bl.addr+uint64(i)*pmem.CachelineSize), i
		}
		l = &bl.cur
	}
	wi := off % pmem.CachelineSize / 8
	return l[wi], l[wi+1]
}

func (w *Worker) setFP(seg uint64, b, s int, fp byte) {
	addr := bucketAddr(seg, b) + offFP + uint64(s/8)*8
	word := w.t.pool.Load64(w.c, addr)
	sh := 8 * uint(s%8)
	word = word&^(0xFF<<sh) | uint64(fp)<<sh
	w.t.pool.Store64(w.c, addr, word)
}

// findInBucket scans an opened bucket for key via fingerprints + bitmap,
// reading a slot's cacheline only for a fingerprint match; it returns the
// slot and its value word, or -1.
func (w *Worker) findInBucket(bl *bucketLines, fp byte, key []byte) (int, uint64) {
	bm := bl.bitmap()
	for s := 0; s < slotsPerBucket; s++ {
		if bm&(1<<uint(s)) == 0 || bl.fp(s) != fp {
			continue
		}
		kw, vw := bl.slot(w, s)
		if common.IsOccupied(kw) && common.KeyWordMatches(w.c, w.t.pool, kw, key) {
			return s, vw
		}
	}
	return -1, 0
}

// targetBuckets returns the target and probing bucket for h.
func targetBuckets(h uint64) (int, int) {
	b := int(h >> 16 % normalBuckets)
	return b, (b + 1) % normalBuckets
}

// searchOnce performs one optimistic (seqlock-validated) lookup
// attempt; ok=false means a concurrent writer interfered. The target
// bucket's version is the first word of the first line the probe reads
// (LoadLine reads a line's words in address order), and is read again
// after the probe.
func (w *Worker) searchOnce(seg uint64, h uint64, key []byte, dst []byte) (val []byte, found, ok bool) {
	t := w.t
	b1, _ := targetBuckets(h)
	target := w.openBucket(seg, b1)
	v1 := target.head[offVersion/8]
	if v1&1 == 1 {
		return nil, false, false
	}
	if b, _, vw, _ := w.find(seg, h, &target, key); b >= 0 {
		val, found = common.LoadValueWord(w.c, t.pool, vw, dst), true
	}
	if t.pool.Load64(w.c, bucketAddr(seg, b1)+offVersion) != v1 {
		return nil, false, false
	}
	return val, found, true
}

// Search implements ixapi.Worker (lock-free: directory descriptor +
// bucket seqlock validation; splits leave bucket versions odd, so a
// reader racing a split retries and re-resolves).
func (w *Worker) Search(key, dst []byte) ([]byte, bool, error) {
	h := common.HashKey(key)
	for {
		m := w.t.meta.Load()
		seg := w.lookupSeg(m, h)
		val, found, ok := w.searchOnce(seg, h, key, dst)
		if ok && w.t.meta.Load() == m {
			if !found {
				return dst, false, nil
			}
			return val, true, nil
		}
	}
}

// bumpVersion makes concurrent optimistic readers of the target bucket
// retry; called with the segment lock held, around mutations.
func (w *Worker) bumpVersion(seg uint64, b int) {
	a := bucketAddr(seg, b) + offVersion
	w.t.pool.Store64(w.c, a, w.t.pool.Load64(w.c, a)+1)
}

// withSegW runs fn with the segment for h write-locked, revalidating
// the directory entry.
var errRetry = errors.New("dash: retry")

func (w *Worker) withSegW(h uint64, fn func(seg uint64) error) error {
	t := w.t
	for {
		m := t.meta.Load()
		seg := w.lookupSeg(m, h)
		lk := t.segLock(seg)
		lk.Lock(w.c)
		err := errRetry
		if t.meta.Load() == m && w.lookupSeg(m, h) == seg {
			err = fn(seg)
		}
		lk.Unlock(w.c)
		if err == errRetry {
			continue
		}
		return err
	}
}

// find looks for key in the target bucket (opened by the caller), the
// probing bucket and, when the target advertises overflow, the stash,
// reading each of their lines at most once. It returns the bucket and slot
// holding key with its value word, or b = -1 and the probing bucket's
// bitmap, by which an insert places the key.
func (w *Worker) find(seg, h uint64, target *bucketLines, key []byte) (b, s int, vw, bm2 uint64) {
	b1, b2 := targetBuckets(h)
	fp := fingerprint(h)
	if s, vw := w.findInBucket(target, fp, key); s >= 0 {
		return b1, s, vw, 0
	}
	probing := w.openBucket(seg, b2)
	if s, vw := w.findInBucket(&probing, fp, key); s >= 0 {
		return b2, s, vw, 0
	}
	if target.bitmap()&overflowFlag != 0 {
		for sb := normalBuckets; sb < totalBuckets; sb++ {
			stash := w.openBucket(seg, sb)
			if s, vw := w.findInBucket(&stash, fp, key); s >= 0 {
				return sb, s, vw, 0
			}
		}
	}
	return -1, -1, 0, probing.bitmap()
}

// locate finds key anywhere in the segment (find). Caller holds the
// segment lock.
func (w *Worker) locate(seg uint64, h uint64, key []byte) (int, int) {
	b1, _ := targetBuckets(h)
	target := w.openBucket(seg, b1)
	b, s, _, _ := w.find(seg, h, &target, key)
	return b, s
}

// putSlot installs an entry into bucket b, updating slot, fingerprint
// and bitmap (the metadata writes Dash pays per insert).
func (w *Worker) putSlot(seg uint64, b, s int, fp byte, kw, vw uint64) {
	t := w.t
	t.pool.Store64(w.c, slotAddr(seg, b, s)+8, vw)
	t.pool.Store64(w.c, slotAddr(seg, b, s), kw)
	w.setFP(seg, b, s, fp)
	bmAddr := bucketAddr(seg, b) + offBitmap
	t.pool.Store64(w.c, bmAddr, t.pool.Load64(w.c, bmAddr)|1<<uint(s))
}

// freeIn returns a free slot index in bucket b, or -1.
func (w *Worker) freeIn(seg uint64, b int) int {
	return firstFree(w.t.pool.Load64(w.c, bucketAddr(seg, b)+offBitmap))
}

// firstFree returns the first slot bitmap bm marks free, or -1.
func firstFree(bm uint64) int {
	if s := bits.TrailingZeros64(^bm); s < slotsPerBucket {
		return s
	}
	return -1
}

// loadCount is how many slots bitmap bm marks taken.
func loadCount(bm uint64) int { return bits.OnesCount64(bm & (1<<slotsPerBucket - 1)) }

// Insert implements ixapi.Worker (upsert; balanced insert across the
// target pair, then stash, then split).
func (w *Worker) Insert(key, val []byte) error {
	t := w.t
	h := common.HashKey(key)
	fp := fingerprint(h)
	kw, vw, _, _, err := common.EncodeKV(w.c, t.pool, w.ah, key, val)
	if err != nil {
		return err
	}
	for {
		full := false
		err := w.withSegW(h, func(seg uint64) error {
			b1, b2 := targetBuckets(h)
			target := w.openBucket(seg, b1)
			b, s, _, bm2 := w.find(seg, h, &target, key)
			if b >= 0 {
				w.bumpVersion(seg, b1)
				t.pool.Store64(w.c, slotAddr(seg, b, s)+8, vw)
				w.bumpVersion(seg, b1)
				return nil
			}
			// Balanced insert: less-loaded of target/probing bucket, by
			// the bitmaps the lookup read.
			cand, bm, other := b1, target.bitmap(), bm2
			if loadCount(bm2) < loadCount(bm) {
				cand, bm, other = b2, bm2, bm
			}
			s = firstFree(bm)
			if s < 0 {
				cand = b1 ^ b2 ^ cand // the other one
				s = firstFree(other)
			}
			if s >= 0 {
				w.bumpVersion(seg, b1)
				w.putSlot(seg, cand, s, fp, kw, vw)
				w.bumpVersion(seg, b1)
				t.entries.Add(1)
				return nil
			}
			// Stash.
			for sb := normalBuckets; sb < totalBuckets; sb++ {
				if s := w.freeIn(seg, sb); s >= 0 {
					w.bumpVersion(seg, b1)
					w.putSlot(seg, sb, s, fp, kw, vw)
					bmAddr := bucketAddr(seg, b1) + offBitmap
					t.pool.Store64(w.c, bmAddr, t.pool.Load64(w.c, bmAddr)|overflowFlag)
					w.bumpVersion(seg, b1)
					t.entries.Add(1)
					return nil
				}
			}
			full = true
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

// Update implements ixapi.Worker (out-of-place value replacement).
func (w *Worker) Update(key, val []byte) (bool, error) {
	t := w.t
	h := common.HashKey(key)
	vp, vi := common.InlinePayload(val)
	if !vi {
		rec, err := common.WriteRecord(w.c, t.pool, w.ah, val)
		if err != nil {
			return false, err
		}
		vp = rec
	}
	vw := common.MakeWord(vi, vp)
	found := false
	err := w.withSegW(h, func(seg uint64) error {
		found = false
		b, s := w.locate(seg, h, key)
		if b < 0 {
			return nil
		}
		found = true
		b1, _ := targetBuckets(h)
		w.bumpVersion(seg, b1)
		t.pool.Store64(w.c, slotAddr(seg, b, s)+8, vw)
		w.bumpVersion(seg, b1)
		return nil
	})
	return found, err
}

// Delete implements ixapi.Worker.
func (w *Worker) Delete(key []byte) (bool, error) {
	t := w.t
	h := common.HashKey(key)
	found := false
	err := w.withSegW(h, func(seg uint64) error {
		found = false
		b, s := w.locate(seg, h, key)
		if b < 0 {
			return nil
		}
		found = true
		b1, _ := targetBuckets(h)
		w.bumpVersion(seg, b1)
		t.pool.Store64(w.c, slotAddr(seg, b, s), 0)
		bmAddr := bucketAddr(seg, b) + offBitmap
		t.pool.Store64(w.c, bmAddr, t.pool.Load64(w.c, bmAddr)&^(1<<uint(s)))
		w.bumpVersion(seg, b1)
		return nil
	})
	if err == nil && found {
		t.entries.Add(-1)
	}
	return found, err
}

// split divides the segment for h (copy-based, like CCEH but keeping
// Dash's per-bucket layout). All bucket versions are left odd for the
// duration so optimistic readers retry.
func (w *Worker) split(h uint64) error {
	t := w.t
	for {
		t.structMu.RLock()
		m := t.meta.Load()
		seg := w.lookupSeg(m, h)
		lk := t.segLock(seg)
		lk.Lock(w.c)
		if t.meta.Load() != m || w.lookupSeg(m, h) != seg {
			lk.Unlock(w.c)
			t.structMu.RUnlock()
			continue
		}
		depth := uint(t.pool.Load64(w.c, seg))
		if depth == m.depth {
			lk.Unlock(w.c)
			t.structMu.RUnlock()
			t.double(w)
			continue
		}
		newSeg, err := t.newSegment(w.c, depth+1)
		if err != nil {
			lk.Unlock(w.c)
			t.structMu.RUnlock()
			return err
		}
		for b := 0; b < totalBuckets; b++ {
			w.bumpVersion(seg, b) // odd: readers retry
		}
		for b := 0; b < totalBuckets; b++ {
			bl := w.openBucket(seg, b)
			bm := bl.bitmap()
			for s := 0; s < slotsPerBucket; s++ {
				if bm&(1<<uint(s)) == 0 {
					continue
				}
				kw, vw := bl.slot(w, s)
				var kh uint64
				if common.IsInline(kw) {
					var kb [8]byte
					for i := 0; i < 8; i++ {
						kb[i] = byte(common.PayloadOf(kw) >> (8 * i))
					}
					kh = common.HashKey(kb[:])
				} else {
					buf := common.ReadRecord(w.c, t.pool, common.PayloadOf(kw), nil)
					kh = common.HashKey(buf)
				}
				if kh>>(63-depth)&1 == 0 {
					continue
				}
				fp := fingerprint(kh)
				if !w.placeDuringSplit(newSeg, kh, fp, kw, vw) {
					// Should not happen (same load, double space).
					lk.Unlock(w.c)
					t.structMu.RUnlock()
					return errors.New("dash: split overflow")
				}
				t.pool.Store64(w.c, slotAddr(seg, b, s), 0)
				bm &^= 1 << uint(s)
				t.pool.Store64(w.c, bucketAddr(seg, b)+offBitmap, bm)
			}
		}
		t.pool.Store64(w.c, seg, uint64(depth+1))
		prefix := hash.Prefix(h, depth)
		base := prefix << (m.depth - depth)
		n := uint64(1) << (m.depth - depth)
		for j := n / 2; j < n; j++ {
			t.pool.Store64(w.c, m.addr+(base+j)*8, newSeg)
		}
		for b := 0; b < totalBuckets; b++ {
			w.bumpVersion(seg, b) // even again
		}
		lk.Unlock(w.c)
		t.structMu.RUnlock()
		return nil
	}
}

// placeDuringSplit inserts into a private (not yet published) segment.
func (w *Worker) placeDuringSplit(seg uint64, h uint64, fp byte, kw, vw uint64) bool {
	b1, b2 := targetBuckets(h)
	for _, b := range [2]int{b1, b2} {
		if s := w.freeIn(seg, b); s >= 0 {
			w.putSlot(seg, b, s, fp, kw, vw)
			return true
		}
	}
	for sb := normalBuckets; sb < totalBuckets; sb++ {
		if s := w.freeIn(seg, sb); s >= 0 {
			w.putSlot(seg, sb, s, fp, kw, vw)
			bmAddr := bucketAddr(seg, b1) + offBitmap
			w.t.pool.Store64(w.c, bmAddr, w.t.pool.Load64(w.c, bmAddr)|overflowFlag)
			return true
		}
	}
	return false
}

// double doubles the persistent directory, excluding splits while the
// copy runs.
func (t *Dash) double(w *Worker) {
	t.structMu.Lock()
	defer t.structMu.Unlock()
	m := t.meta.Load()
	if m.depth >= 44 {
		return
	}
	nd, err := t.al.AllocRaw(w.c, 8<<(m.depth+1))
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
