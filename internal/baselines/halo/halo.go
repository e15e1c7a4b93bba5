// Package halo reimplements Halo (Hu et al., SIGMOD'22): a hybrid
// PMem-DRAM hash index that keeps the entire hash table in DRAM and
// manages key-value entries in log-structured PM.
//
// What drives the paper's comparison:
//
//   - index traversal is pure DRAM (fast reads), but every write
//     appends a PM log record AND invalidates the previous version in
//     place, and periodic snapshots plus log compaction rewrite live
//     records — "notable PM writes for snapshot creations, as well as
//     the creation, invalidation, and reclamation of log entries";
//   - writes serialise on per-shard locks ("its concurrent performance
//     is constrained by its lock-based protocol");
//   - the full DRAM table is why the paper excludes Halo from the
//     large micro-benchmark (DRAM exhaustion) — mirrored here by its
//     Go-map-resident directory;
//   - flush instructions are removed per the paper's methodology.
package halo

import (
	"sync/atomic"

	"spash/internal/alloc"
	"spash/internal/baselines/common"
	"spash/internal/ixapi"
	"spash/internal/pmem"
	"spash/internal/vsync"
)

const (
	shards = 64
	// logBlockBytes is the allocation unit of the per-shard logs.
	logBlockBytes = 64 << 10
	// snapshotEvery triggers a shard snapshot after this many writes.
	snapshotEvery = 8192
	// validBit marks a live log record; invalidation clears it.
	validBit = uint64(1) << 63
)

type shard struct {
	mu  vsync.RWMutex
	dir map[string]uint64 // key -> record address (DRAM-resident)

	logAddr uint64 // current log block
	logOff  uint64
	live    uint64 // live bytes in this shard's logs
	dead    uint64 // invalidated bytes
	writes  uint64 // since last snapshot
}

// Halo is the index.
type Halo struct {
	pool *pmem.Pool
	al   *alloc.Allocator
	grp  *vsync.Group

	shards [shards]shard

	entries atomic.Int64
}

// New creates a Halo index.
func New(c *pmem.Ctx, pool *pmem.Pool, al *alloc.Allocator) (*Halo, error) {
	t := &Halo{pool: pool, al: al, grp: &vsync.Group{}}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.G = t.grp
		s.dir = make(map[string]uint64)
	}
	return t, nil
}

// Name implements ixapi.Index.
func (t *Halo) Name() string { return "Halo" }

// Len implements ixapi.Index.
func (t *Halo) Len() int { return int(t.entries.Load()) }

// LoadFactor is not meaningful for a DRAM-resident directory (the
// paper's Fig 9 excludes Halo); reported as 1.
func (t *Halo) LoadFactor() float64 { return 1 }

// Pools implements ixapi.Index: one device.
func (t *Halo) Pools() []*pmem.Pool { return []*pmem.Pool{t.pool} }

// Groups implements ixapi.Index: one serialisation domain.
func (t *Halo) Groups() []*vsync.Group { return []*vsync.Group{t.grp} }

// dramDirCost is the virtual cost of one operation on the full
// DRAM-resident directory: the table is far larger than any cache, so
// a lookup or insert costs a couple of DRAM misses (~80 ns each).
// (Halo's defining trade-off: it buys fast traversal with a DRAM table
// the paper's large datasets eventually exhaust.)
const dramDirCost = 160

// Worker is the per-goroutine handle.
type Worker struct {
	t  *Halo
	c  *pmem.Ctx
	ah *alloc.Handle
}

// NewWorker implements ixapi.Index.
func (t *Halo) NewWorker() ixapi.Worker {
	return &Worker{t: t, c: t.pool.NewCtx(), ah: t.al.NewHandle()}
}

// ResetClock and Clock implement ixapi.Worker over the worker's one
// pmem context.
func (w *Worker) ResetClock()  { w.c.ResetClock() }
func (w *Worker) Clock() int64 { return w.c.Clock() }

// Close implements ixapi.Worker.
func (w *Worker) Close() { w.ah.Close() }

func (t *Halo) shardOf(h uint64) *shard { return &t.shards[h>>(64-6)] }

func pad8(n int) int { return (n + 7) &^ 7 }

func recBytes(klen, vlen int) uint64 {
	return uint64(8 + pad8(klen) + pad8(vlen))
}

// appendLog writes a log record [hdr][key][val] and returns its
// address. Caller holds the shard write lock.
func (w *Worker) appendLog(s *shard, key, val []byte) (uint64, error) {
	t := w.t
	n := recBytes(len(key), len(val))
	if s.logAddr == 0 || s.logOff+n > logBlockBytes {
		blk, err := t.al.AllocRaw(w.c, logBlockBytes)
		if err != nil {
			return 0, err
		}
		s.logAddr, s.logOff = blk, 0
	}
	a := s.logAddr + s.logOff
	t.pool.Store64(w.c, a, validBit|uint64(len(key))<<32|uint64(len(val)))
	t.pool.Write(w.c, a+8, key)
	if len(val) > 0 {
		t.pool.Write(w.c, a+8+uint64(pad8(len(key))), val)
	}
	s.logOff += n
	s.live += n
	return a, nil
}

// invalidate clears a record's valid bit — the in-place PM write Halo
// pays on every overwrite and delete.
func (w *Worker) invalidate(s *shard, addr uint64) {
	hdr := w.t.pool.Load64(w.c, addr)
	w.t.pool.Store64(w.c, addr, hdr&^validBit)
	klen, vlen := int(hdr>>32&0x7FFFFFFF), int(hdr&0xFFFFFFFF)
	n := recBytes(klen, vlen)
	s.dead += n
	if s.live >= n {
		s.live -= n
	}
}

// maintain runs snapshotting and compaction policies after a write.
// Caller holds the shard write lock.
func (w *Worker) maintain(s *shard) error {
	s.writes++
	if s.writes >= snapshotEvery {
		s.writes = 0
		w.snapshot(s)
	}
	if s.dead > logBlockBytes && s.dead > s.live {
		return w.compact(s)
	}
	return nil
}

// snapshot persists the DRAM directory to PM (16 bytes per entry) —
// Halo's recovery mechanism and one of its write-amplification
// sources.
func (w *Worker) snapshot(s *shard) {
	t := w.t
	size := uint64(len(s.dir))*16 + 8
	blk, err := t.al.AllocRaw(w.c, size)
	if err != nil {
		return // snapshots are best-effort under memory pressure
	}
	t.pool.Store64(w.c, blk, uint64(len(s.dir)))
	off := uint64(8)
	for k, addr := range s.dir {
		t.pool.Store64(w.c, blk+off, common.HashKey([]byte(k)))
		t.pool.Store64(w.c, blk+off+8, addr)
		off += 16
	}
}

// compact rewrites every live record into fresh log blocks and drops
// the dead space (the log reclamation writes the paper calls out).
func (w *Worker) compact(s *shard) error {
	t := w.t
	old := s.dir
	s.dir = make(map[string]uint64, len(old))
	s.logAddr, s.logOff, s.live, s.dead = 0, 0, 0, 0
	for k, addr := range old {
		hdr := t.pool.Load64(w.c, addr)
		klen, vlen := int(hdr>>32&0x7FFFFFFF), int(hdr&0xFFFFFFFF)
		val := make([]byte, vlen)
		t.pool.Read(w.c, addr+8+uint64(pad8(klen)), val)
		na, err := w.appendLog(s, []byte(k), val)
		if err != nil {
			return err
		}
		s.dir[k] = na
	}
	return nil
}

// Insert implements ixapi.Worker.
func (w *Worker) Insert(key, val []byte) error {
	h := common.HashKey(key)
	s := w.t.shardOf(h)
	s.mu.Lock(w.c)
	defer s.mu.Unlock(w.c)
	w.c.Charge(dramDirCost)
	addr, err := w.appendLog(s, key, val)
	if err != nil {
		return err
	}
	if old, ok := s.dir[string(key)]; ok {
		w.invalidate(s, old)
	} else {
		w.t.entries.Add(1)
	}
	s.dir[string(key)] = addr
	return w.maintain(s)
}

// Update implements ixapi.Worker.
func (w *Worker) Update(key, val []byte) (bool, error) {
	h := common.HashKey(key)
	s := w.t.shardOf(h)
	s.mu.Lock(w.c)
	defer s.mu.Unlock(w.c)
	w.c.Charge(dramDirCost)
	old, ok := s.dir[string(key)]
	if !ok {
		return false, nil
	}
	addr, err := w.appendLog(s, key, val)
	if err != nil {
		return false, err
	}
	w.invalidate(s, old)
	s.dir[string(key)] = addr
	return true, w.maintain(s)
}

// Delete implements ixapi.Worker.
func (w *Worker) Delete(key []byte) (bool, error) {
	h := common.HashKey(key)
	s := w.t.shardOf(h)
	s.mu.Lock(w.c)
	defer s.mu.Unlock(w.c)
	w.c.Charge(dramDirCost)
	old, ok := s.dir[string(key)]
	if !ok {
		return false, nil
	}
	w.invalidate(s, old)
	delete(s.dir, string(key))
	w.t.entries.Add(-1)
	return true, w.maintain(s)
}

// Search implements ixapi.Worker: a DRAM directory hit plus one PM
// record read.
func (w *Worker) Search(key, dst []byte) ([]byte, bool, error) {
	h := common.HashKey(key)
	s := w.t.shardOf(h)
	s.mu.RLock(w.c)
	defer s.mu.RUnlock(w.c)
	w.c.Charge(dramDirCost)
	addr, ok := s.dir[string(key)]
	if !ok {
		return dst, false, nil
	}
	hdr := w.t.pool.Load64(w.c, addr)
	klen, vlen := int(hdr>>32&0x7FFFFFFF), int(hdr&0xFFFFFFFF)
	if vlen < 0 || vlen > common.MaxKVLen {
		return dst, false, nil
	}
	buf := make([]byte, vlen)
	w.t.pool.Read(w.c, addr+8+uint64(pad8(klen)), buf)
	return append(dst, buf...), true, nil
}
