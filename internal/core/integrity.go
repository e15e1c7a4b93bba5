package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"spash/internal/alloc"
	"spash/internal/hash"
	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// This file makes the layout self-verifying and repairable. The
// mechanism is a seal table parallel to the registry: one word per
// pool XPLine, packing the four per-bucket CRC32Cs of the segment in
// that frame (16 bits per 64-byte bucket). Seals are maintained inside
// the same atomic sections that mutate segments, validated on every
// operation when Config.Checksums is on, and checked by Fsck. A segment
// that fails validation is quarantined: its directory range is repointed
// at a freshly rebuilt segment holding the entries that survive salvage,
// and the keys that did not are reported — wrong answers are never
// returned.

// ErrCorrupted matches (via errors.Is) every *CorruptionError.
var ErrCorrupted = errors.New("core: data corruption detected")

// ErrChecksum is the cause of a seal (per-bucket CRC) mismatch.
var ErrChecksum = errors.New("core: segment checksum mismatch")

// ErrRecordChecksum is the cause of an out-of-line record whose
// payload does not match its header CRC.
var ErrRecordChecksum = errors.New("core: record checksum mismatch")

// CorruptionError is returned (never panicked) by operations that hit
// damaged media: a poisoned XPLine, a segment whose seal does not
// match its contents, or a record failing its CRC. Bucket is -1 when
// the damage cannot be attributed to one bucket.
type CorruptionError struct {
	Seg    uint64
	Bucket int
	Cause  error
}

func (e *CorruptionError) Error() string {
	if e.Bucket >= 0 {
		return fmt.Sprintf("core: corruption in segment %#x bucket %d: %v", e.Seg, e.Bucket, e.Cause)
	}
	return fmt.Sprintf("core: corruption in segment %#x: %v", e.Seg, e.Cause)
}

func (e *CorruptionError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrCorrupted) match any CorruptionError.
func (e *CorruptionError) Is(target error) bool { return target == ErrCorrupted }

// recordFault is the panic value raised deep in the probe path
// (keyMatches) when a key record fails its CRC; the operation guard
// converts it to a *CorruptionError return. It never escapes exec.
type recordFault struct{ addr uint64 }

// Seal encoding: bucket b's CRC32C (truncated to 16 bits) occupies
// bits [16b, 16b+16) of the seal word.

// bucketCRC computes the 16-bit CRC lane of one bucket's 8 words: the
// CRC32C of their little-endian bytes, folded byte by byte through
// crcTable so that no byte buffer escapes into crc32.Checksum and a seal
// check stays off the heap.
func bucketCRC(ws []uint64) uint64 {
	crc := ^uint32(0)
	for _, w := range ws[:SlotsPerBucket*2] {
		for i := 0; i < 8; i++ {
			crc = crcTable[byte(crc)^byte(w)] ^ crc>>8
			w >>= 8
		}
	}
	return uint64(^crc & 0xFFFF)
}

// sealOfImage computes the seal word of an in-memory segment image.
func sealOfImage(img *[SegmentSize / 8]uint64) uint64 {
	var s uint64
	for b := 0; b < BucketsPerSegment; b++ {
		s |= bucketCRC(img[b*SlotsPerBucket*2:(b+1)*SlotsPerBucket*2]) << (16 * b)
	}
	return s
}

// sealOfMem computes the seal word of a segment read through m (one
// copy staged in buf; inside a transaction its lines join the read set,
// so the seal is consistent with the image the transaction commits
// against).
func sealOfMem(m mem, seg uint64, buf *[SegmentSize]byte) uint64 {
	img := loadSegment(m, seg, buf)
	return sealOfImage(&img)
}

// reseal recomputes and stores the segment's seal through m. Called
// after a mutating operation body succeeds, inside the same atomic
// section, so seal and segment can never be observed out of step
// (except by an ADR power cut, which fsck repairs).
func (ix *Index) reseal(m mem, seg uint64, buf *[SegmentSize]byte) {
	m.store(ix.sealAddrOf(seg), sealOfMem(m, seg, buf))
}

// verifySeal compares the segment's stored seal with its contents and
// returns the mismatching buckets as a 4-bit mask (0 = clean).
func (ix *Index) verifySeal(m mem, seg uint64, buf *[SegmentSize]byte) (badMask int) {
	return sealMask(m.load(ix.sealAddrOf(seg)), sealOfMem(m, seg, buf))
}

// sealMask compares a stored seal word with the seal computed from the
// segment's contents and returns the mismatching buckets as a 4-bit
// mask (0 = clean). Every seal check — the operation guard, fsck's
// verification and salvage — reads its verdict here.
func sealMask(want, got uint64) (badMask int) {
	for b := 0; b < BucketsPerSegment; b++ {
		if (want^got)>>(16*b)&0xFFFF != 0 {
			badMask |= 1 << b
		}
	}
	return badMask
}

func firstBadBucket(badMask int) int {
	for b := 0; b < BucketsPerSegment; b++ {
		if badMask>>b&1 == 1 {
			return b
		}
	}
	return -1
}

// guardBody wraps an operation body with the corruption boundary:
//
//   - a poisoned-media machine check (pmem.AccessError panic) or a
//     key-record CRC failure (recordFault panic) raised by any access
//     inside the body becomes a *CorruptionError return value, so it
//     unwinds through the protocol paths — which must run their
//     unlock/release code — instead of through the stack;
//   - when checksums are on, the segment's seal is validated before
//     the body runs (damaged segments fail fast instead of answering)
//     and recomputed after a mutating body succeeds.
//
// The wrapper preserves the body contract: it is idempotent and
// resets nothing the body does not reset itself.
func (h *Handle) guardBody(readonly bool, body func(m mem, seg uint64) error) func(m mem, seg uint64) error {
	ix := h.ix
	return func(m mem, seg uint64) (err error) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if ae, ok := r.(pmem.AccessError); ok {
				// Poisoned media, or — on a checksum-off pool where no
				// seal guards the pointers — a corrupted slot pointing
				// at a misaligned/out-of-range record. Either way the
				// operation fails typed instead of panicking.
				err = &CorruptionError{Seg: seg, Bucket: -1, Cause: ae}
				return
			}
			if rf, ok := r.(recordFault); ok {
				// A doomed optimistic reader can catch a freed-and-reused
				// record mid-rewrite and fail its CRC transiently. Give
				// the writer a moment and re-check raw: a record that
				// heals was a race (retry the operation via the protocol's
				// segment-moved path); one that stays rotten is corrupt.
				raw := rawMem{ix.pool, h.c}
				for i := 0; i < 3; i++ {
					if recordCRCOK(raw, rf.addr) {
						err = errSegMoved
						return
					}
					runtime.Gosched()
				}
				err = &CorruptionError{Seg: seg, Bucket: -1,
					Cause: fmt.Errorf("key record %#x: %w", rf.addr, ErrRecordChecksum)}
				return
			}
			panic(r)
		}()
		if ix.sealAddr != 0 {
			if bad := ix.verifySeal(m, seg, &h.segBuf); bad != 0 {
				return &CorruptionError{Seg: seg, Bucket: firstBadBucket(bad), Cause: ErrChecksum}
			}
		}
		if err := body(m, seg); err != nil {
			return err
		}
		if ix.sealAddr != 0 && !readonly {
			ix.reseal(m, seg, &h.segBuf)
		}
		return nil
	}
}

// poisonAsCorruption is a defer helper for paths that read PM outside
// a guarded operation body (split preparation): a poisoned-media panic
// becomes a *CorruptionError assigned to *err; other panics propagate.
func poisonAsCorruption(seg *uint64, err *error) {
	if r := recover(); r != nil {
		if ae, ok := r.(pmem.AccessError); ok && ae.Poisoned {
			*err = &CorruptionError{Seg: *seg, Bucket: -1, Cause: ae}
			return
		}
		panic(r)
	}
}

// The maintenance readers — Fsck, ExportRange, the invariant and
// placement checks, Dump, ForEach and recovery's mark phase — share
// three primitives: one poison guard (tolerate), one registry walk
// (eachRegistered) and one slot verdict (judgeSlot).

// mediaFaults names the class of pmem.AccessError a guard turns into a
// result; every other panic passes through it.
type mediaFaults int

const (
	// anyAccess: poison, or the misaligned / out-of-range access a
	// damaged word's pointer produces.
	anyAccess mediaFaults = iota
	// poisonOnly: poison alone; any other access error is a bug.
	poisonOnly
)

// tolerate runs fn and returns the access error of class faults that
// cut it short, or nil when fn ran to the end. Anything else re-raises
// the recovered value itself, the one panic the panicfree analyzer
// allows on these paths.
func tolerate(faults mediaFaults, fn func()) (fault *pmem.AccessError) {
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(pmem.AccessError)
			if !ok || faults == poisonOnly && !ae.Poisoned {
				panic(r)
			}
			fault = &ae
		}
	}()
	fn()
	return nil
}

// eachRegistered walks the persistent registry in frame order and calls
// fn for every word naming a live segment and for every word it cannot
// read (poisoned, with prefix and depth 0), until fn returns false. What
// an unreadable word means is fn's to decide.
func (ix *Index) eachRegistered(c *pmem.Ctx, fn func(seg, prefix uint64, depth uint, poisoned bool) bool) {
	for i := uint64(0); i < ix.registryCap; i++ {
		var e uint64
		poisoned := tolerate(anyAccess, func() { e = ix.pool.Load64(c, ix.registryAddr+i*8) }) != nil
		if !poisoned && e&regValid == 0 {
			continue
		}
		if !fn(i*SegmentSize, regPrefix(e), regDepth(e), poisoned) {
			return
		}
	}
}

// slotVerdict is what judgeSlot found out about one occupied slot, one
// field per check; each validator reads the checks it needs.
type slotVerdict struct {
	key     []byte // the key bytes, when they decode
	h       uint64 // hashKey(key), when the key decodes
	decodes bool   // inline, or a key record whose CRC matches
	routes  bool   // the key's hash prefix is the range's
	fpOK    bool   // the key word's fingerprint is the hash's
	valueOK bool   // inline, or a value record whose CRC matches
	// hinted: the entry sits in its main bucket, or a hint there names
	// its slot with the right overflow fingerprint; hintBadFP: a hint
	// there names its slot with another.
	hinted, hintBadFP bool
}

// judgeSlot checks the occupied slot s of the segment image snap
// against the hash range (prefix, depth), reading records through m.
// An access fault on a record — poison, or the wild pointer of a
// damaged word — fails the check it hit instead of panicking.
func judgeSlot(m mem, snap *[SegmentSize / 8]uint64, s int, prefix uint64, depth uint) (v slotVerdict) {
	kw, vw := snap[s*2], snap[s*2+1]
	tolerate(anyAccess, func() { v.key, v.decodes = decodeSlotKey(m, kw) })
	v.valueOK = valueIsInline(vw)
	if !v.valueOK {
		tolerate(anyAccess, func() { v.valueOK = recordCRCOK(m, wordPayload(vw)) })
	}
	if !v.decodes {
		return v
	}
	v.h = hashKey(v.key)
	v.routes = hash.Prefix(v.h, depth) == prefix
	v.fpOK = keyFP(kw) == hash.KeyFingerprint(v.h)
	b := mainBucket(v.h)
	if v.hinted = bucketOf(s) == b; v.hinted {
		return v
	}
	for hs := b * SlotsPerBucket; hs < (b+1)*SlotsPerBucket; hs++ {
		if hv := snap[hs*2+1]; hintValid(hv) && hintIdx(hv) == s {
			ok := hintFP(hv) == hash.OverflowFingerprint(v.h)
			v.hinted = v.hinted || ok
			v.hintBadFP = v.hintBadFP || !ok
		}
	}
	return v
}

// SegmentFault describes one damaged segment found by verification.
type SegmentFault struct {
	Seg    uint64 `json:"seg"`
	Prefix uint64 `json:"prefix"`
	Depth  uint   `json:"depth"`
	// Shard is the owning shard in a sharded database (stamped by
	// spash.Session.Fsck; 0 on a bare core index). Replica read-repair
	// needs it to fetch the authoritative range from the right peer
	// shard.
	Shard int `json:"shard,omitempty"`
	// Poisoned marks an uncorrectable-media segment (or registry/seal
	// frame); BadBuckets is the seal-mismatch mask; BadSlots counts
	// slots failing semantic validation (routing, fingerprint, record
	// CRC, missing overflow hint).
	Poisoned   bool   `json:"poisoned,omitempty"`
	BadBuckets int    `json:"bad_buckets,omitempty"`
	BadSlots   int    `json:"bad_slots,omitempty"`
	Cause      string `json:"cause"`
}

// verifySegment checks one segment against its registry claim and
// returns a fault description, or nil when clean. It never panics:
// poison is reported as a fault. Read-only; usable on a live index
// only when the segment is quiesced (Fsck).
//
// A slot is valid when every check of its verdict passes: decodable key
// (record CRC for out-of-line keys), correct routing prefix, matching
// fingerprint, a CRC-clean out-of-line value and — for overflow
// entries — a hint in the main bucket.
func (ix *Index) verifySegment(c *pmem.Ctx, seg, prefix uint64, depth uint) *SegmentFault {
	m := rawMem{ix.pool, c}
	fault := SegmentFault{Seg: seg, Prefix: prefix, Depth: depth}
	var buf [SegmentSize]byte
	ae := tolerate(anyAccess, func() {
		snap := loadSegment(m, seg, &buf)
		if ix.sealAddr != 0 {
			fault.BadBuckets = sealMask(m.load(ix.sealAddrOf(seg)), sealOfImage(&snap))
		}
		for s := 0; s < SlotsPerSegment; s++ {
			if !keyOccupied(snap[s*2]) {
				continue
			}
			v := judgeSlot(m, &snap, s, prefix, depth)
			if !v.decodes || !v.routes || !v.fpOK || !v.valueOK || !v.hinted {
				fault.BadSlots++
			}
		}
	})
	if ae != nil {
		return &SegmentFault{Seg: seg, Prefix: prefix, Depth: depth, Poisoned: ae.Poisoned, Cause: ae.Error()}
	}
	if fault.BadBuckets == 0 && fault.BadSlots == 0 {
		return nil
	}
	fault.Cause = fmt.Sprintf("seal mask %#x, %d invalid slots", fault.BadBuckets, fault.BadSlots)
	return &fault
}

// loadSegment reads a segment's words through m with one copy of its
// lines, staged in buf: the caller's, because a local buffer handed
// through the mem interface would be moved to the heap.
func loadSegment(m mem, seg uint64, buf *[SegmentSize]byte) (img [SegmentSize / 8]uint64) {
	m.read(seg, buf[:])
	for i := range img {
		img[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return img
}

// decodeSlotKey extracts the key bytes of an occupied key word: the
// inline payload, or the out-of-line record if its CRC matches.
func decodeSlotKey(m mem, kw uint64) ([]byte, bool) {
	if keyIsInline(kw) {
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], wordPayload(kw))
		return kb[:], true
	}
	key, ok := readCheckedRecord(m, wordPayload(kw), nil)
	if !ok {
		return nil, false
	}
	return key, true
}

// QuarantineReport records one segment rebuild: which frame was
// dropped, where its survivors went, and which keys were lost. Keys
// whose bytes could not be recovered from the damaged image are not
// listed; they are covered by the segment's hash range (Prefix/Depth),
// which oracles use to excuse unattributable misses.
type QuarantineReport struct {
	Seg uint64 `json:"seg"`
	// NewSeg is the rebuilt frame: Seg itself when a full pool had no
	// free frame and the image was rebuilt in place.
	NewSeg uint64 `json:"new_seg"`
	Prefix uint64 `json:"prefix"`
	Depth  uint   `json:"depth"`
	// Shard is the owning shard in a sharded database (stamped by
	// spash.Session.Fsck; 0 on a bare core index).
	Shard int `json:"shard,omitempty"`
	// Salvaged entries moved to the new segment; Dropped were
	// discarded (LostKeys lists the ones whose key bytes survived).
	Salvaged int      `json:"salvaged"`
	Dropped  int      `json:"dropped"`
	LostKeys [][]byte `json:"lost_keys,omitempty"`
}

// Covers reports whether a key's hash falls in the quarantined range.
func (q *QuarantineReport) Covers(h uint64) bool {
	return hash.Prefix(h, q.Depth) == q.Prefix
}

// Quarantine drops the damaged segment owning hash hh and rebuilds its
// directory range from the survivors of salvage. expectSeg, when
// non-zero, aborts the quarantine (nil report, nil error) if the range
// is no longer served by that segment — a concurrent split, merge or
// earlier repair already replaced the damaged frame.
//
// Locking follows splitFallback: every covering directory entry is
// fallback-locked, excluding transactions and fallbacks on the whole
// segment, then the rebuild runs irrevocably.
func (h *Handle) Quarantine(hh uint64, expectSeg uint64) (*QuarantineReport, error) {
	ix := h.ix
	c := h.c
	for {
		d, e := ix.unlockedEntry(hh)
		seg, depth := entrySeg(e), entryDepth(e)
		if expectSeg != 0 && seg != expectSeg {
			return nil, nil
		}
		prefix := hash.Prefix(hh, depth)
		base := prefix << (d.depth - depth)
		n := uint64(1) << (d.depth - depth)
		if !ix.lockCovering(c, d, base, n, seg, depth) {
			continue
		}

		var report *QuarantineReport
		err := ix.tm.Irrevocable(c, ix.pool, func(it *htm.ITxn) error {
			m := iMem{it}
			snap, poisoned := readSegmentTolerant(m, seg)
			occupied := 0
			if !poisoned {
				for s := 0; s < SlotsPerSegment; s++ {
					if keyOccupied(snap[s*2]) {
						occupied++
					}
				}
			}
			keep, lost, dropped := ix.salvageSegment(m, &snap, seg, poisoned, prefix, depth)
			img, lok := layoutSegment(keep)
			if !lok {
				// Salvage produced an unlayoutable set (corrupt hints
				// skewed the decode); drop everything, report what we can.
				for _, en := range keep {
					if k, ok := decodeSlotKey(m, en.kw); ok {
						lost = append(lost, append([]byte(nil), k...))
					}
					dropped++
				}
				keep = nil
				img = [SegmentSize / 8]uint64{}
			}
			newSeg, _, aerr := h.ah.Alloc(c, SegmentSize)
			inPlace := errors.Is(aerr, alloc.ErrNoSpace) && ix.sealAddr != 0
			switch {
			case inPlace:
				// A full pool has no frame to rebuild into: the image
				// replaces the damaged one in place (the stores heal
				// poison), through the irrevocable txn, so optimistic
				// readers still scanning the frame conflict and retry.
				// Unlike a fresh frame this is not atomic on an ADR
				// crash before the write-back below; a frame left torn
				// fails its seal and the next fsck repairs it again.
				// Without checksums nothing would detect that tear, so
				// there the repair fails with the allocator's error and
				// fsck reports the segment as failed.
				newSeg = seg
				for i, w := range img {
					m.store(seg+uint64(i)*8, w)
				}
			case aerr != nil:
				return aerr
			default:
				// Raw stores: the frame is fresh (or healing a poisoned
				// reuse); nothing reads it until the directory repoints.
				for i, w := range img {
					ix.pool.Store64(c, newSeg+uint64(i)*8, w)
				}
				m.store(ix.regAddrOf(seg), 0)
			}
			m.store(ix.regAddrOf(newSeg), makeRegEntry(prefix, depth))
			if ix.sealAddr != 0 {
				m.store(ix.sealAddrOf(newSeg), sealOfImage(&img))
				if !inPlace {
					m.store(ix.sealAddrOf(seg), 0)
				}
			}
			if !inPlace {
				// Heal the damaged frame before it returns to the free
				// pool (stores clear poison): a freed frame must never
				// machine-check a later reader. Through the irrevocable
				// txn, so optimistic readers still scanning it conflict
				// and retry.
				for i := uint64(0); i < SegmentSize/8; i++ {
					m.store(seg+i*8, 0)
				}
			}
			for j := uint64(0); j < n; j++ {
				it.StoreVol(&d.entries[base+j], makeEntry(newSeg, depth))
			}
			ix.entries.Add(int64(len(keep)) - int64(occupied))
			if poisoned {
				// The frame was unreadable: its occupancy (and with it
				// the exact counter delta) is lost. Flag the counter as
				// approximate; the next quiescent scan resyncs it.
				ix.entriesApprox.Store(true)
			}
			report = &QuarantineReport{
				Seg: seg, NewSeg: newSeg, Prefix: prefix, Depth: depth,
				Salvaged: len(keep), Dropped: dropped, LostKeys: lost,
			}
			return nil
		})
		if err != nil {
			ix.unlockCovering(c, d, base, n)
			return nil, err
		}
		// Drain the replacement segment's write-back before freeing the
		// quarantined one: once the old segment is reusable, the new
		// image must already be ADR-durable.
		ix.pool.Flush(c, report.NewSeg, SegmentSize)
		ix.pool.Fence(c)
		if report.NewSeg != seg {
			h.ah.Free(c, seg, SegmentSize)
		}
		ix.reg.Inc(obs.CQuarantines)
		return report, nil
	}
}

// readSegmentTolerant snapshots a segment through m, reporting (zero
// image, true) when the frame is poisoned.
func readSegmentTolerant(m mem, seg uint64) (snap [SegmentSize / 8]uint64, poisoned bool) {
	var buf [SegmentSize]byte
	if tolerate(anyAccess, func() { snap = loadSegment(m, seg, &buf) }) != nil {
		return [SegmentSize / 8]uint64{}, true
	}
	return snap, false
}

// salvageSegment decides, slot by slot, what survives a quarantine.
// The trust rule is strict — wrong values must be impossible:
//
//   - a poisoned frame salvages nothing (its keys are covered by the
//     range excusal);
//   - with checksums on, a bucket whose seal lane mismatches is
//     dropped whole: the damaged word cannot be attributed, so neither
//     key words nor value words (inline values included) of that
//     bucket can be trusted. Decodable keys are reported lost;
//   - everything else passes the full semantic validation (key CRC,
//     routing, fingerprint, value-record CRC) or is dropped and — when
//     the key bytes survive — reported.
func (ix *Index) salvageSegment(m mem, snap *[SegmentSize / 8]uint64, seg uint64, poisoned bool, prefix uint64, depth uint) (keep []segEntry, lost [][]byte, dropped int) {
	if poisoned {
		return nil, nil, 0
	}
	badMask := 0
	if ix.sealAddr != 0 {
		badMask = sealMask(m.load(ix.sealAddrOf(seg)), sealOfImage(snap))
	}
	for s := 0; s < SlotsPerSegment; s++ {
		if !keyOccupied(snap[s*2]) {
			continue
		}
		v := judgeSlot(m, snap, s, prefix, depth)
		routed := v.decodes && v.routes && v.fpOK
		if badMask>>bucketOf(s)&1 == 1 || !routed || !v.valueOK {
			dropped++
			if routed {
				lost = append(lost, append([]byte(nil), v.key...))
			}
			continue
		}
		keep = append(keep, segEntry{kw: snap[s*2], vw: snap[s*2+1] &^ hintMask, h: v.h})
	}
	return keep, lost, dropped
}

// FsckReport is the result of one verification (and optional repair)
// pass over the whole pool.
type FsckReport struct {
	// Segments is the number of live segments walked; Faults the
	// damaged ones found. Repairs records successful quarantines;
	// Failed the faults that could not be repaired (repair disabled,
	// or the rebuild itself failed).
	Segments int                `json:"segments"`
	Faults   []SegmentFault     `json:"faults,omitempty"`
	Repairs  []QuarantineReport `json:"repairs,omitempty"`
	Failed   []SegmentFault     `json:"failed,omitempty"`
}

// Clean reports whether no damage was found.
func (r *FsckReport) Clean() bool { return len(r.Faults) == 0 }

// Merge folds another report into r, aggregating per-shard checks into
// one database-level report. Clean/ExitCode/LostKeys on the merged
// report behave as if a single walk had covered every shard.
func (r *FsckReport) Merge(o *FsckReport) {
	if o == nil {
		return
	}
	r.Segments += o.Segments
	r.Faults = append(r.Faults, o.Faults...)
	r.Repairs = append(r.Repairs, o.Repairs...)
	r.Failed = append(r.Failed, o.Failed...)
}

// ExitCode maps the report to the documented spash-fsck exit codes:
// 0 = clean, 1 = damage found and fully repaired, 2 = damage remains
// (repair disabled or failed).
func (r *FsckReport) ExitCode() int {
	switch {
	case len(r.Faults) == 0:
		return 0
	case len(r.Failed) == 0 && len(r.Repairs) == len(r.Faults):
		return 1
	default:
		return 2
	}
}

// LostKeys flattens every repair's lost-key list.
func (r *FsckReport) LostKeys() [][]byte {
	var out [][]byte
	for i := range r.Repairs {
		out = append(out, r.Repairs[i].LostKeys...)
	}
	return out
}

// Fsck walks the persistent registry, verifies every live segment and
// — when repair is set — quarantines and rebuilds the damaged ones.
// The index should be quiescent: it is the offline spash-fsck path, and
// online it runs through Session.Fsck on an index nothing else writes.
func (h *Handle) Fsck(repair bool) (*FsckReport, error) {
	ix := h.ix
	c := h.c
	rep := &FsckReport{}
	ix.eachRegistered(c, func(seg, prefix uint64, depth uint, poisoned bool) bool {
		if poisoned {
			f := SegmentFault{Seg: seg, Poisoned: true, Cause: "registry frame unreadable (poisoned)"}
			rep.Faults = append(rep.Faults, f)
			rep.Failed = append(rep.Failed, f)
			return true
		}
		rep.Segments++
		f := ix.verifySegment(c, seg, prefix, depth)
		if f == nil {
			return true
		}
		rep.Faults = append(rep.Faults, *f)
		if !repair {
			return true
		}
		qr, err := h.Quarantine(prefix<<(64-depth), seg)
		switch {
		case err != nil:
			f.Cause = fmt.Sprintf("repair failed: %v", err)
		case qr == nil:
			f.Cause = "repair skipped: segment restructured concurrently"
		default:
			rep.Repairs = append(rep.Repairs, *qr)
			return true
		}
		rep.Failed = append(rep.Failed, *f)
		return true
	})
	if len(rep.Repairs) > 0 {
		// Corruption can destroy occupancy information (a flipped
		// occupied bit), so the live-entry counter delta applied by
		// Quarantine is only an estimate. Fsck runs quiescent: resync
		// the counter against the post-repair truth.
		ix.entries.Store(ix.countOccupied(c))
		ix.entriesApprox.Store(false)
	}
	ix.reg.SetGauge(obs.GFsckUnrecoverable, int64(len(rep.Failed)))
	return rep, nil
}

// countOccupied walks every live segment and counts occupied slots,
// skipping unreadable frames.
func (ix *Index) countOccupied(c *pmem.Ctx) (total int64) {
	ix.eachRegistered(c, func(seg, _ uint64, _ uint, poisoned bool) bool {
		if poisoned {
			return true
		}
		snap, bad := readSegmentTolerant(rawMem{ix.pool, c}, seg)
		for s := 0; s < SlotsPerSegment && !bad; s++ {
			if keyOccupied(snap[s*2]) {
				total++
			}
		}
		return true
	})
	return total
}

// KeyHash exposes the index's key-hash function so external oracles
// (internal/crashtest) can match keys against QuarantineReport.Covers
// and repair-report prefix ranges.
func KeyHash(key []byte) uint64 { return hashKey(key) }

// CheckPlacement scans every live segment and counts occupied slots
// whose key decodes cleanly (inline, or an out-of-line record with a
// matching CRC) but routes to a different segment. This is the silent-
// misplacement shape a value-comparison oracle cannot see: the record
// looks intact, yet lookups for its key go elsewhere and miss it.
// Undecodable or poisoned slots are not counted — they are corruption,
// reported through the verification paths. The index must be
// quiescent.
func (ix *Index) CheckPlacement(c *pmem.Ctx) (misplaced int) {
	m := rawMem{ix.pool, c}
	ix.eachRegistered(c, func(seg, prefix uint64, depth uint, poisoned bool) bool {
		if poisoned {
			return true
		}
		snap, bad := readSegmentTolerant(m, seg)
		for s := 0; s < SlotsPerSegment && !bad; s++ {
			if !keyOccupied(snap[s*2]) {
				continue
			}
			if v := judgeSlot(m, &snap, s, prefix, depth); v.decodes && !v.routes {
				misplaced++
			}
		}
		return true
	})
	return misplaced
}
