// Package alloc is a persistent-memory allocator modelled on DCMM
// (the allocator the Spash paper adopts, §III-C): per-thread caches,
// size-class free lists, and — crucially for compacted-flush insertion
// — small classes (≤128 bytes) carved out of XPLine-sized chunks so
// that consecutive small allocations are physically adjacent and can
// be flushed to media in one XPLine-granular write-back.
//
// Persistence model. Like DCMM, the allocator keeps its free lists in
// DRAM so that allocation and free touch no PM metadata on the fast
// path (the paper's per-insert PM write counts leave no budget for
// bitmap updates). The only persistent metadata is an append-only
// arena directory written once per arena (or raw span) creation.
// After a crash, Attach rebuilds the arena table from the directory;
// the owner of the pool then reports every live block via MarkLive
// (indexes know their reachable records), and FinishRecovery rebuilds
// the free lists as the complement — the offline mark phase DCMM-style
// allocators rely on.
package alloc

import (
	"errors"
	"fmt"
	"sync"

	"spash/internal/pmem"
)

// ErrNoSpace is matched (errors.Is) by every error that refuses a write
// because the device has no room left for it: ErrOutOfMemory here, and
// the index's full directory. The root package exports it as
// spash.ErrNoSpace.
var ErrNoSpace = errors.New("no space left")

// ErrOutOfMemory is returned when the pool is exhausted.
var ErrOutOfMemory = fmt.Errorf("alloc: pool exhausted: %w", ErrNoSpace)

// arenaBytes is the size of one arena; every arena serves one class.
const arenaBytes = 64 << 10

// Classes are the supported block sizes. Classes up to smallClassMax
// are carved from XPLine chunks (they divide 256, so no block crosses
// an XPLine boundary).
var classSizes = [numClasses]int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

const (
	numClasses    = 9
	smallClassMax = 128
)

// classFor returns the class index for a request of n bytes, or -1 if
// n exceeds the largest class.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// ClassSize returns the usable size of the block that a request of n
// bytes receives (allocation granularity for capacity planning).
func ClassSize(n int) int {
	if i := classFor(n); i >= 0 {
		return classSizes[i]
	}
	return int((uint64(n) + pmem.XPLineSize - 1) &^ uint64(pmem.XPLineSize-1))
}

// Directory entry encoding: bits 63..32 = class size (0 for a raw
// span), bits 31..0 = span length in XPLines.
func dirEntry(classSize, xplines uint64) uint64 { return classSize<<32 | xplines }

const (
	// headerAddr is where the allocator's superblock lives; the first
	// 64 bytes of the pool stay zero so address 0 can be the nil
	// pointer.
	headerAddr = 64
	magic      = 0x53504153484D4D31 // "SPASHMM1"
)

type classState struct {
	mu sync.Mutex
	// free is the global free list (block addresses).
	free []uint64
	// arena is the current arena for this class; bump is the offset
	// of the next unissued byte within it. arena == 0 means none.
	arena uint64
	bump  uint64
}

// Allocator manages a pmem pool. All indexes sharing a pool must share
// the Allocator.
type Allocator struct {
	pool *pmem.Pool

	mu        sync.Mutex // guards watermark and directory append
	watermark uint64     // next unassigned pool byte
	dirBase   uint64
	dirCap    uint64 // max entries
	dirLen    uint64
	dataBase  uint64

	classes [numClasses]classState

	// recovery state
	recovering bool
	liveMu     sync.Mutex
	live       map[uint64]struct{}
}

// New formats the pool and returns a fresh allocator. The pool must be
// zeroed (as returned by pmem.New).
//
//spash:guarded formats a virgin pool before any worker or HTM domain exists; single-threaded by contract
func New(c *pmem.Ctx, pool *pmem.Pool) (*Allocator, error) {
	a := &Allocator{pool: pool}
	a.layout()
	if pool.Load64(c, headerAddr) != 0 {
		return nil, errors.New("alloc: pool already formatted; use Attach")
	}
	pool.Store64(c, headerAddr, magic)
	pool.Flush(c, headerAddr, 8)
	pool.Fence(c)
	return a, nil
}

// Attach opens an already-formatted pool (e.g. after a crash) and
// rebuilds the arena table from the persistent directory. All blocks
// are initially considered live; call MarkLive for every reachable
// block and then FinishRecovery to reconstruct the free lists.
//
// Attach is a total function over arbitrary pool contents: a corrupted
// or truncated image yields a descriptive error, never a panic. Every
// directory entry is validated — the class size must be a supported
// class (or 0 for a raw span), the span non-empty and class-aligned,
// and the running watermark must stay inside the pool.
func Attach(c *pmem.Ctx, pool *pmem.Pool) (_ *Allocator, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pmem.IsInjectedCrash(r) {
				panic(r)
			}
			err = fmt.Errorf("alloc: attach failed on corrupted pool: %v", r)
		}
	}()
	a := &Allocator{pool: pool}
	a.layout()
	if a.dataBase >= pool.Size() {
		return nil, fmt.Errorf("alloc: pool of %d bytes too small for metadata layout", pool.Size())
	}
	if pool.Load64(c, headerAddr) != magic {
		return nil, errors.New("alloc: pool not formatted")
	}
	a.recovering = true
	a.live = make(map[uint64]struct{})
	// Replay the directory to restore the watermark. Arenas become
	// fully-bumped (their free space is recovered by the mark phase).
	avail := pool.Size() - a.dataBase
	for i := uint64(0); i < a.dirCap; i++ {
		e := pool.Load64(c, a.dirBase+i*8)
		if e == 0 {
			break
		}
		classSize := e >> 32
		span := (e & 0xFFFFFFFF) * pmem.XPLineSize
		if classSize != 0 {
			if classFor(int(classSize)) < 0 || uint64(ClassSize(int(classSize))) != classSize {
				return nil, fmt.Errorf("alloc: directory entry %d has unsupported class size %d", i, classSize)
			}
			if span%classSize != 0 {
				return nil, fmt.Errorf("alloc: directory entry %d: span %d not a multiple of class size %d", i, span, classSize)
			}
		}
		if span == 0 {
			return nil, fmt.Errorf("alloc: directory entry %d has empty span", i)
		}
		if span > avail-a.watermark {
			return nil, fmt.Errorf("alloc: directory entry %d overflows the pool (watermark %d + span %d > %d data bytes)",
				i, a.watermark, span, avail)
		}
		a.dirLen++
		a.watermark += span
	}
	return a, nil
}

// DataBase returns the pool address where carved data begins. Pool
// owners use it (with CarvedEnd) to bounds-check persistent pointers
// during recovery.
func (a *Allocator) DataBase() uint64 { return a.dataBase }

// CarvedEnd returns the pool address one past the last carved byte:
// every block the allocator has ever issued lies in
// [DataBase, CarvedEnd).
func (a *Allocator) CarvedEnd() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dataBase + a.watermark
}

// layout computes the directory and data regions from the pool size.
func (a *Allocator) layout() {
	size := a.pool.Size()
	a.dirCap = size / arenaBytes * 2 // arenas + generous raw spans
	a.dirBase = 256
	dataBase := a.dirBase + a.dirCap*8
	a.dataBase = (dataBase + pmem.XPLineSize - 1) &^ uint64(pmem.XPLineSize-1)
	a.watermark = 0 // offset relative to dataBase
}

// carve takes xplines XPLines from the pool watermark and records the
// span in the persistent directory.
//
//spash:guarded directory append serialised by a.mu and published by the flush+fence below; the entry is invisible to the index until the carved span is handed out
func (a *Allocator) carve(c *pmem.Ctx, classSize, xplines uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dirLen == a.dirCap {
		return 0, ErrOutOfMemory
	}
	addr := a.dataBase + a.watermark
	if addr+xplines*pmem.XPLineSize > a.pool.Size() {
		return 0, ErrOutOfMemory
	}
	a.watermark += xplines * pmem.XPLineSize
	entry := a.dirBase + a.dirLen*8
	a.pool.Store64(c, entry, dirEntry(classSize, xplines))
	a.pool.Flush(c, entry, 8)
	a.pool.Fence(c)
	a.dirLen++
	return addr, nil
}

// AllocRaw carves a never-freed span of at least size bytes, aligned
// to XPLineSize. Baseline indexes use it for their table arrays.
func (a *Allocator) AllocRaw(c *pmem.Ctx, size uint64) (uint64, error) {
	xpl := (size + pmem.XPLineSize - 1) / pmem.XPLineSize
	return a.carve(c, 0, xpl)
}

// popFree moves up to want recycled blocks of class ci into dst.
func (a *Allocator) popFree(ci int, dst []uint64, want int) []uint64 {
	cs := &a.classes[ci]
	cs.mu.Lock()
	if n := len(cs.free); n > 0 {
		take := want
		if take > n {
			take = n
		}
		dst = append(dst, cs.free[n-take:]...)
		cs.free = cs.free[:n-take]
	}
	cs.mu.Unlock()
	return dst
}

// refillChunk issues one physically contiguous XPLine chunk of class
// ci blocks from the class arena (carving a new arena if dry). Small
// classes divide XPLineSize, so the chunk never crosses an XPLine
// boundary — the property compacted-flush insertion relies on.
func (a *Allocator) refillChunk(c *pmem.Ctx, ci int) (base uint64, count int, err error) {
	cs := &a.classes[ci]
	size := uint64(classSizes[ci])
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.arena == 0 || cs.bump == arenaBytes {
		addr, err := a.carve(c, size, arenaBytes/pmem.XPLineSize)
		if err != nil {
			return 0, 0, err
		}
		cs.arena, cs.bump = addr, 0
	}
	base = cs.arena + cs.bump
	cs.bump += pmem.XPLineSize
	return base, pmem.XPLineSize / int(size), nil
}

// refill moves a batch of blocks of class ci to dst, preferring
// recycled blocks and carving fresh arena space otherwise. Used for
// classes larger than smallClassMax, where contiguity does not matter.
func (a *Allocator) refill(c *pmem.Ctx, ci int, dst []uint64, want int) ([]uint64, error) {
	dst = a.popFree(ci, dst, want)
	cs := &a.classes[ci]
	size := uint64(classSizes[ci])
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for len(dst) < want {
		if cs.arena == 0 || cs.bump == arenaBytes {
			addr, err := a.carve(c, size, arenaBytes/pmem.XPLineSize)
			if err != nil {
				if len(dst) > 0 {
					return dst, nil
				}
				return dst, err
			}
			cs.arena, cs.bump = addr, 0
		}
		dst = append(dst, cs.arena+cs.bump)
		cs.bump += size
	}
	return dst, nil
}

// freeBatch returns blocks to the global class list.
func (a *Allocator) freeBatch(ci int, blocks []uint64) {
	cs := &a.classes[ci]
	cs.mu.Lock()
	cs.free = append(cs.free, blocks...)
	cs.mu.Unlock()
}

// RootWords is the number of application root slots the allocator
// reserves between its superblock and its directory. Applications
// (the index) store their persistent entry points there so recovery
// can find them at a fixed address.
const RootWords = 23

// RootAddr returns the pool address of application root word i.
func RootAddr(i int) uint64 {
	if i < 0 || i >= RootWords {
		panic("alloc: root word index out of range")
	}
	return headerAddr + 8 + uint64(i)*8
}

// Stats reports allocator occupancy.
type Stats struct {
	// WatermarkBytes is the total PM carved from the pool.
	WatermarkBytes uint64
	// Arenas is the number of directory entries (arenas + raw spans).
	Arenas uint64
	// FreeBlocks is the number of recycled blocks sitting on the
	// global class free lists (signed so phase deltas can go negative
	// when a phase consumes more than it frees).
	FreeBlocks int64
}

// Stats returns occupancy counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	s := Stats{WatermarkBytes: a.watermark, Arenas: a.dirLen}
	a.mu.Unlock()
	for i := range a.classes {
		cs := &a.classes[i]
		cs.mu.Lock()
		s.FreeBlocks += int64(len(cs.free))
		cs.mu.Unlock()
	}
	return s
}
