package core

import (
	"errors"
	"fmt"

	"spash/internal/alloc"
	"spash/internal/pmem"
)

// Recover reopens an index after a crash (or clean shutdown). The
// volatile directory is rebuilt from the persistent segment registry:
// every valid registry entry contributes its segment to the directory
// at the maximum observed local depth. Segment contents are then
// scanned once to restore the entry count and to report every
// reachable block (segments, key records, value records) to the
// allocator's mark phase, after which the allocator's free lists are
// the complement of the live set.
//
// Under eADR every operation that completed before the crash is
// durable by construction (visibility implies durability), so recovery
// is purely a rebuild of volatile state — the property the durable-
// linearizability tests verify.
//
// Recover is a total function over arbitrary pool contents: corrupted
// images (bad magic, out-of-range registry pointer, impossible depths
// or prefixes, overlapping or gapped coverage, segment addresses
// outside the carved data region) produce a descriptive error, never a
// panic. A residual pmem access panic from a corruption shape not
// caught by the explicit checks is converted to an error by the
// backstop; only an injected-crash unwind passes through.
func Recover(c *pmem.Ctx, pool *pmem.Pool, cfg Config) (_ *Index, _ *alloc.Allocator, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pmem.IsInjectedCrash(r) {
				panic(r)
			}
			err = fmt.Errorf("core: recovery failed on corrupted pool: %v", r)
		}
	}()
	al, err := alloc.Attach(c, pool)
	if err != nil {
		return nil, nil, err
	}
	if pool.Load64(c, alloc.RootAddr(rootMagic)) != indexMagic {
		return nil, nil, errors.New("core: pool does not contain an index")
	}
	if err := validateGeometry(pool.Load64(c, alloc.RootAddr(rootGeom))); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	ix := newIndex(pool, al, cfg)
	ix.registryAddr = pool.Load64(c, alloc.RootAddr(rootRegistry))
	ix.registryCap = pool.Size() / SegmentSize

	dataBase, carvedEnd := al.DataBase(), al.CarvedEnd()
	switch {
	case ix.registryAddr == 0:
		return nil, nil, errors.New("core: registry root pointer is nil")
	case ix.registryAddr&7 != 0:
		return nil, nil, fmt.Errorf("core: registry root pointer %#x misaligned", ix.registryAddr)
	case ix.registryAddr < dataBase || ix.registryAddr+ix.registryCap*8 > pool.Size():
		return nil, nil, fmt.Errorf("core: registry [%#x,%#x) outside pool data region [%#x,%#x)",
			ix.registryAddr, ix.registryAddr+ix.registryCap*8, dataBase, pool.Size())
	}

	// Checksum maintenance is a persistent property of the pool: adopt
	// it from the seal-table root pointer, whatever the passed Config
	// says (a recovery that silently stopped maintaining seals would
	// make every later verification fail).
	ix.sealAddr = pool.Load64(c, alloc.RootAddr(rootSeal))
	if cfg.Checksums && ix.sealAddr == 0 {
		// The reverse direction (device sealed, Config off) is not an
		// error: maintenance is adopted from the device below.
		return nil, nil, &GeometryError{Field: "checksums", Device: 0, Requested: 1}
	}
	ix.cfg.Checksums = ix.sealAddr != 0
	// The promotion epoch is informational here (RecoverAll checks
	// cross-shard agreement; promotion bumps it): adopt whatever the
	// device carries, including 0 from pre-epoch images.
	ix.epoch.Store(pool.Load64(c, alloc.RootAddr(rootEpoch)))
	// The applied-sequence cursor is likewise adopted as-is: 0 on
	// primaries and pre-cursor images, the durable replication cursor
	// on a rejoining replica (internal/repl re-derives its stream
	// position from it).
	ix.applied.Store(pool.Load64(c, alloc.RootAddr(rootApplied)))
	if ix.sealAddr != 0 {
		switch {
		case ix.sealAddr&7 != 0:
			return nil, nil, fmt.Errorf("core: seal table pointer %#x misaligned", ix.sealAddr)
		case ix.sealAddr < dataBase || ix.sealAddr+ix.registryCap*8 > pool.Size():
			return nil, nil, fmt.Errorf("core: seal table [%#x,%#x) outside pool data region [%#x,%#x)",
				ix.sealAddr, ix.sealAddr+ix.registryCap*8, dataBase, pool.Size())
		}
	}

	type segInfo struct {
		addr, prefix uint64
		depth        uint
	}
	var segs []segInfo
	maxd := uint(0)
	for i := uint64(0); i < ix.registryCap; i++ {
		e := pool.Load64(c, ix.registryAddr+i*8)
		if e&regValid == 0 {
			continue
		}
		si := segInfo{addr: i * SegmentSize, prefix: regPrefix(e), depth: regDepth(e)}
		if si.depth > maxDepth {
			return nil, nil, fmt.Errorf("core: registry entry %d has depth %d > max %d", i, si.depth, maxDepth)
		}
		if si.prefix >= 1<<si.depth {
			return nil, nil, fmt.Errorf("core: registry entry %d has prefix %#x not representable at depth %d",
				i, si.prefix, si.depth)
		}
		if si.addr < dataBase || si.addr+SegmentSize > carvedEnd {
			return nil, nil, fmt.Errorf("core: registry entry %d claims segment %#x outside carved data [%#x,%#x)",
				i, si.addr, dataBase, carvedEnd)
		}
		if si.depth > maxd {
			maxd = si.depth
		}
		segs = append(segs, si)
	}
	if len(segs) == 0 {
		return nil, nil, errors.New("core: registry empty; index corrupt")
	}
	// A complete buddy covering of maximum depth d contains at least
	// d+1 segments (d splits from a single root), and the directory a
	// genuine image needs never exceeds the segment population by more
	// than a few doublings. Reject depths a valid image cannot have
	// before allocating the 1<<maxd-entry directory.
	if uint64(maxd) > uint64(len(segs)-1) || (maxd > 6 && uint64(1)<<maxd > 64*ix.registryCap) {
		return nil, nil, fmt.Errorf("core: registry depth %d impossible for %d segments; index corrupt", maxd, len(segs))
	}

	d := newDirectory(maxd)
	for _, s := range segs {
		base := s.prefix << (maxd - s.depth)
		span := uint64(1) << (maxd - s.depth)
		for j := uint64(0); j < span; j++ {
			if d.entries[base+j] != 0 {
				return nil, nil, fmt.Errorf("core: registry overlap at prefix %#x", base+j)
			}
			d.entries[base+j] = makeEntry(s.addr, s.depth)
		}
	}
	for i, e := range d.entries {
		if e == 0 {
			return nil, nil, fmt.Errorf("core: registry gap at prefix %#x", i)
		}
	}
	ix.dir.Store(d)
	ix.segments.Store(int64(len(segs)))

	// Mark phase: segments and their out-of-line records are live.
	m := rawMem{pool, c}
	live := int64(0)
	for _, s := range segs {
		al.MarkLive(s.addr)
		live += markSegment(al, m, s.addr)
	}
	ix.entries.Store(live)
	if err := al.FinishRecovery(c); err != nil {
		return nil, nil, err
	}
	return ix, al, nil
}

// markSegment scans one segment's slots during the mark phase,
// returning its occupied count. A poisoned segment (uncorrectable
// media) is skipped whole — its records stay unmarked and are freed,
// exactly what the later quarantine/repair of that segment assumes —
// so a single bad XPLine cannot fail the entire recovery.
func markSegment(al *alloc.Allocator, m mem, seg uint64) (live int64) {
	var img [SegmentSize / 8]uint64
	if tolerate(poisonOnly, func() { live = int64(loadLines(m, seg, &img)) }) != nil {
		return 0
	}
	for s := range SlotsPerSegment {
		kw, vw := img[2*s], img[2*s+1]
		if !keyOccupied(kw) {
			continue
		}
		if !keyIsInline(kw) {
			al.MarkLive(wordPayload(kw))
		}
		if !valueIsInline(vw) {
			al.MarkLive(wordPayload(vw))
		}
	}
	return live
}
