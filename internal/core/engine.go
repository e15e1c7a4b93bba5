package core

import (
	"encoding/binary"

	"spash/internal/hash"
	"spash/internal/pmem"
)

// req is a normalised request key: its hash, the fingerprints derived
// from it, and the inline encoding when the key fits a slot.
type req struct {
	key []byte
	h   uint64
	fp  uint16 // key fingerprint (13 bits)
	ofp uint16 // overflow fingerprint (10 bits)
	// kpay/kInline: the inline payload if the key inlines.
	kpay    uint64
	kInline bool
	// bucket is ExecBatch's main bucket address: hintBucket's guess,
	// then the one prefetchOp resolved and asked for, which the record
	// stages read (pipeline.go); operations ignore it.
	bucket uint64
	// arrives is when prefetchOp's load of bucket arrives on the
	// context's clock (pmem.Ctx.Arrives): the record stage runs ahead of
	// its fixed lead only for a request whose bucket is in.
	arrives int64
	// loaded is the bucket whose fingerprint matches' records ExecBatch's
	// record stage asked for (0: none), so the probe asks again only for
	// matches in other buckets (locate).
	loaded uint64
}

func makeReq(key []byte) req {
	h := hashKey(key)
	r := req{
		key: key,
		h:   h,
		fp:  hash.KeyFingerprint(h),
		ofp: hash.OverflowFingerprint(h),
	}
	r.kpay, r.kInline = inlineKeyPayload(key)
	return r
}

// keyMatches checks whether an occupied key word identifies r's key.
// Fingerprint filtering happens first, so out-of-line key records are
// dereferenced only on a 13-bit fingerprint match (§III-A).
func (ix *Index) keyMatches(c *pmem.Ctx, kw uint64, r *req) bool {
	if keyFP(kw) != r.fp {
		return false
	}
	if keyIsInline(kw) {
		return r.kInline && wordPayload(kw) == r.kpay
	}
	if keyRecordEquals(c, ix.pool, wordPayload(kw), r.key) {
		return true
	}
	if ix.sealAddr != 0 && !recordCRCOK(rawMem{ix.pool, c}, wordPayload(kw)) {
		// The fingerprint matched but the key record neither equals the
		// probe key nor passes its own CRC: the record is rotten, and a
		// plain "no match" could silently turn a present key into
		// not-found. The operation guard converts this to a typed
		// *CorruptionError. (A doomed optimistic reader can also land
		// here via a freed-and-reused record; exec retries conflicts
		// before surfacing errors, so only real corruption persists.)
		panic(recordFault{addr: wordPayload(kw)})
	}
	return false
}

// locate finds r's slot in the segment: the main bucket first, then
// the overflow entries advertised by the bucket's hints. Thanks to the
// every-overflow-entry-has-a-hint invariant, a miss here proves
// absence. Returns the slot index with its current words, or idx = -1,
// the number of slot words probed (the probe-length observable) and the
// main bucket's line as the probe read it.
//
// The main bucket is one cacheline, read once (loadLine): its key words,
// the value word of a match and the hints all come from that one access.
// An overflow slot a hint names costs one read of its own bucket's line.
//
// On an out-of-line key whose fingerprint matches, in either scan, the
// probe starts the asynchronous load of what the operation reads of its
// value record (prefetchValue: every line when whole, for a Get; the
// header, with the length, for the writes) before the compare waits out
// the key record's miss, so the two records' misses overlap (§III-D
// within one operation). It skips a match in r.loaded, whose records the
// record stage has in flight, and a probe outside an operation (the
// invariant check, a test's lookup) skips every match. The header is
// peeked, and a doomed transaction may probe a freed and reused segment,
// so both words may be garbage: that costs only a useless prefetch,
// never a load past the pool, a fault step or a machine check.
func (ix *Index) locate(m mem, c *pmem.Ctx, seg uint64, r *req, whole bool) (idx int, kw, vw uint64, probes int, main pmem.Line) {
	base := mainBucket(r.h) * SlotsPerBucket
	main = m.loadLine(slotAddr(seg, base))
	for i := range SlotsPerBucket {
		w := main[2*i]
		probes++
		if !keyOccupied(w) || keyFP(w) != r.fp {
			continue
		}
		if ix.matchSlot(c, slotAddr(seg, base+i), w, main[2*i+1], r, whole) {
			return base + i, w, main[2*i+1], probes, main
		}
	}
	// Hint scan: every overflow entry homed in this bucket has a hint
	// in one of the bucket's four value words.
	for i := range SlotsPerBucket {
		hv := main[2*i+1]
		if !hintValid(hv) || hintFP(hv) != r.ofp {
			continue
		}
		oi := hintIdx(hv)
		l := m.loadLine(slotAddr(seg, oi))
		w, ov := l[2*(oi%SlotsPerBucket)], l[2*(oi%SlotsPerBucket)+1]
		probes++
		if !keyOccupied(w) || keyFP(w) != r.fp {
			continue
		}
		if ix.matchSlot(c, slotAddr(seg, oi), w, ov, r, whole) {
			return oi, w, ov, probes, main
		}
	}
	return -1, 0, 0, probes, main
}

// matchSlot reports whether the slot at address a, whose occupied key
// word kw carries r's fingerprint and whose value word is vw, holds r's
// key, prefetching as locate says.
func (ix *Index) matchSlot(c *pmem.Ctx, a, kw, vw uint64, r *req, whole bool) bool {
	if !keyIsInline(kw) && a&^(pmem.CachelineSize-1) != r.loaded && c.InOp() {
		ix.prefetchValue(c, vw, whole)
	}
	return ix.keyMatches(c, kw, r)
}

// freeSlot is where a new entry goes: slot idx, whose value word vw
// carries hint bits the entry keeps, and, when idx lies outside the main
// bucket, the main-bucket slot hint (-1: none) whose value word hw takes
// the entry's overflow hint.
type freeSlot struct {
	idx, hint int
	vw, hw    uint64
}

// findFree picks the slot for a new entry following circular probing
// (§III-A): the main bucket's first free slot, else the first free
// slot of the overflow buckets in circular order — which additionally
// requires a free hint word in the main bucket. main is the main
// bucket's line as locate read it; each overflow bucket costs one read
// of its line. ok=false when the segment cannot take the entry (split
// required).
func findFree(m mem, seg uint64, h uint64, main *pmem.Line) (f freeSlot, ok bool) {
	b := mainBucket(h)
	base := b * SlotsPerBucket
	for i := range SlotsPerBucket {
		if !keyOccupied(main[2*i]) {
			return freeSlot{idx: base + i, hint: -1, vw: main[2*i+1]}, true
		}
	}
	// Main bucket full: find a hint word first.
	f.hint = -1
	for i := range SlotsPerBucket {
		if !hintValid(main[2*i+1]) {
			f.hint, f.hw = base+i, main[2*i+1]
			break
		}
	}
	if f.hint < 0 {
		return f, false
	}
	for off := 1; off < BucketsPerSegment; off++ {
		ob := (b + off) % BucketsPerSegment * SlotsPerBucket
		l := m.loadLine(slotAddr(seg, ob))
		for i := range SlotsPerBucket {
			if !keyOccupied(l[2*i]) {
				f.idx, f.vw = ob+i, l[2*i+1]
				return f, true
			}
		}
	}
	return f, false
}

// placeEntry writes a new entry into the free slot f, preserving the
// slot's hint bits and installing the overflow hint when f lies outside
// the main bucket.
func placeEntry(m mem, seg uint64, f freeSlot, r *req, kw, vwBase uint64) {
	m.store(slotAddr(seg, f.idx)+8, f.vw&hintMask|vwBase)
	m.store(slotAddr(seg, f.idx), kw)
	if f.hint >= 0 {
		m.store(slotAddr(seg, f.hint)+8, f.hw&^hintMask|makeHint(r.ofp, f.idx))
	}
}

// clearEntry removes the entry at slot idx, whose value word is vw: the
// key word is zeroed and the value word keeps only its hint bits (which
// belong to the bucket, not to this entry). If the entry lived in an
// overflow bucket, its hint in the main bucket, whose line locate read as
// main, is cleared as well.
func clearEntry(m mem, seg uint64, idx int, vw uint64, main *pmem.Line, h uint64) {
	m.store(slotAddr(seg, idx), 0)
	m.store(slotAddr(seg, idx)+8, vw&hintMask)
	base := mainBucket(h) * SlotsPerBucket
	if bucketOf(idx) == base/SlotsPerBucket {
		return
	}
	for i := range SlotsPerBucket {
		if hv := main[2*i+1]; hintValid(hv) && hintIdx(hv) == idx {
			m.store(slotAddr(seg, base+i)+8, hv&^hintMask)
			return
		}
	}
}

// loadValue appends the value identified by vw to dst through m.
func loadValue(m mem, vw uint64, dst []byte) []byte {
	if valueIsInline(vw) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], wordPayload(vw))
		return append(dst, b[:]...)
	}
	return readRecord(m, wordPayload(vw), dst)
}

// segEntry is one decoded live entry of a segment, used by split,
// merge and recovery.
type segEntry struct {
	kw, vw uint64
	h      uint64
}

// segEntries is a list of decoded entries with room for a whole segment:
// split, merge and relayout build theirs on the stack.
type segEntries struct {
	e [SlotsPerSegment]segEntry
	n int
}

func (l *segEntries) add(e segEntry)   { l.e[l.n] = e; l.n++ }
func (l *segEntries) live() []segEntry { return l.e[:l.n] }

// loadLines reads the segment's four bucket lines through m into img,
// one access each, and returns how many of its key words are occupied:
// the number of entries decodeSegment will find in img.
func loadLines(m mem, seg uint64, img *[SegmentSize / 8]uint64) (occupied int) {
	for b := 0; b < BucketsPerSegment; b++ {
		l := m.loadLine(slotAddr(seg, b*SlotsPerBucket))
		copy(img[b*len(l):], l[:])
		for i := 0; i < len(l); i += 2 {
			if keyOccupied(l[i]) {
				occupied++
			}
		}
	}
	return occupied
}

// decodeSegment appends to out the live entries of the segment image img
// with their key hashes (re-hashing inline keys, reading key records raw
// for out-of-line ones).
func (h *Handle) decodeSegment(img *[SegmentSize / 8]uint64, out *segEntries) {
	for s := range SlotsPerSegment {
		kw := img[2*s]
		if !keyOccupied(kw) {
			continue
		}
		var kh uint64
		if keyIsInline(kw) {
			kh = hash.Sum64Uint64(wordPayload(kw))
		} else {
			h.keyBuf = readRecord(&h.raw, wordPayload(kw), h.keyBuf[:0])
			kh = hashKey(h.keyBuf)
		}
		out.add(segEntry{kw: kw, vw: img[2*s+1] &^ hintMask, h: kh})
	}
}

// layoutSegment arranges entries into a fresh segment image: each
// entry in its main bucket when possible, overflow entries placed by
// circular probing with hints installed. ok=false when the entries do
// not fit (more than 4+4 entries homed in one bucket, or more than 16
// total).
func layoutSegment(entries []segEntry) (img [SegmentSize / 8]uint64, ok bool) {
	if len(entries) > SlotsPerSegment {
		return img, false
	}
	// place puts e in the first free slot of bucket b, reporting the slot
	// (-1: the bucket is full). Key words sit at img[2s], value words at
	// img[2s+1].
	place := func(e *segEntry, b int) int {
		for s := b * SlotsPerBucket; s < (b+1)*SlotsPerBucket; s++ {
			if img[s*2] == 0 {
				img[s*2] = e.kw
				img[s*2+1] |= e.vw
				return s
			}
		}
		return -1
	}
	var overflow segEntries
	for i := range entries {
		if e := &entries[i]; place(e, mainBucket(e.h)) < 0 {
			overflow.add(*e)
		}
	}
	for i := range overflow.live() {
		e := &overflow.e[i]
		b := mainBucket(e.h)
		hintSlot := -1
		for s := b * SlotsPerBucket; s < (b+1)*SlotsPerBucket; s++ {
			if !hintValid(img[s*2+1]) {
				hintSlot = s
				break
			}
		}
		if hintSlot < 0 {
			return img, false
		}
		at := -1
		for off := 1; off < BucketsPerSegment && at < 0; off++ {
			at = place(e, (b+off)%BucketsPerSegment)
		}
		if at < 0 {
			return img, false
		}
		img[hintSlot*2+1] |= makeHint(hash.OverflowFingerprint(e.h), at)
	}
	return img, true
}
