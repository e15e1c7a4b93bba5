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
// plus the number of slot words probed (the probe-length observable).
//
// On an out-of-line key whose fingerprint matches, in either scan, the
// probe loads the slot's value word first and starts the asynchronous
// load of what the operation reads of its value record (prefetchValue:
// every line when whole, for a Get; the header, with the length, for the
// writes) before the compare waits out the key record's miss, so
// the two records' misses overlap (§III-D within one operation). It
// skips a match in r.loaded, whose records the record stage has in
// flight, and a probe outside an operation (the invariant check, a
// test's lookup) reads no value and skips every match. The header is
// peeked, and a doomed transaction may probe a freed and reused segment,
// so both words may be garbage: that costs only a useless prefetch,
// never a load past the pool, a fault step or a machine check.
func (ix *Index) locate(m mem, c *pmem.Ctx, seg uint64, r *req, whole bool) (idx int, kw, vw uint64, probes int) {
	b := mainBucket(r.h)
	base := b * SlotsPerBucket
	// Main bucket scan.
	for s := base; s < base+SlotsPerBucket; s++ {
		w := m.load(slotAddr(seg, s))
		probes++
		if !keyOccupied(w) || keyFP(w) != r.fp {
			continue
		}
		if vw, ok := ix.matchSlot(m, c, slotAddr(seg, s), w, r, whole); ok {
			return s, w, vw, probes
		}
	}
	// Hint scan: every overflow entry homed in this bucket has a hint
	// in one of the bucket's four value words.
	for s := base; s < base+SlotsPerBucket; s++ {
		hv := m.load(slotAddr(seg, s) + 8)
		if !hintValid(hv) || hintFP(hv) != r.ofp {
			continue
		}
		oi := hintIdx(hv)
		w := m.load(slotAddr(seg, oi))
		probes++
		if !keyOccupied(w) || keyFP(w) != r.fp {
			continue
		}
		if vw, ok := ix.matchSlot(m, c, slotAddr(seg, oi), w, r, whole); ok {
			return oi, w, vw, probes
		}
	}
	return -1, 0, 0, probes
}

// matchSlot reports whether the slot at address a, whose occupied key
// word kw carries r's fingerprint, holds r's key, and if so its value
// word, prefetching as locate says.
func (ix *Index) matchSlot(m mem, c *pmem.Ctx, a, kw uint64, r *req, whole bool) (vw uint64, ok bool) {
	if !keyIsInline(kw) && a&^(pmem.CachelineSize-1) != r.loaded && c.InOp() {
		vw = m.load(a + 8)
		ix.prefetchValue(c, vw, whole)
		return vw, ix.keyMatches(c, kw, r)
	}
	if !ix.keyMatches(c, kw, r) {
		return 0, false
	}
	return m.load(a + 8), true
}

// findFree picks the slot for a new entry following circular probing
// (§III-A): the main bucket's first free slot, else the first free
// slot of the overflow buckets in circular order — which additionally
// requires a free hint word in the main bucket. It returns the slot
// index, the hint-word slot (-1 when none is needed) and ok=false when
// the segment cannot take the entry (split required).
func findFree(m mem, seg uint64, h uint64) (idx, hintSlot int, ok bool) {
	b := mainBucket(h)
	base := b * SlotsPerBucket
	for s := base; s < base+SlotsPerBucket; s++ {
		if !keyOccupied(m.load(slotAddr(seg, s))) {
			return s, -1, true
		}
	}
	// Main bucket full: find a hint word first.
	hintSlot = -1
	for s := base; s < base+SlotsPerBucket; s++ {
		if !hintValid(m.load(slotAddr(seg, s) + 8)) {
			hintSlot = s
			break
		}
	}
	if hintSlot < 0 {
		return 0, 0, false
	}
	for off := 1; off < BucketsPerSegment; off++ {
		ob := (b + off) % BucketsPerSegment
		for s := ob * SlotsPerBucket; s < (ob+1)*SlotsPerBucket; s++ {
			if !keyOccupied(m.load(slotAddr(seg, s))) {
				return s, hintSlot, true
			}
		}
	}
	return 0, 0, false
}

// placeEntry writes a new entry into slot idx, preserving the target
// value word's hint bits and installing the overflow hint when idx is
// outside the main bucket.
func placeEntry(m mem, seg uint64, idx, hintSlot int, r *req, kw, vwBase uint64) {
	va := slotAddr(seg, idx) + 8
	m.store(va, m.load(va)&hintMask|vwBase)
	m.store(slotAddr(seg, idx), kw)
	if hintSlot >= 0 {
		ha := slotAddr(seg, hintSlot) + 8
		m.store(ha, m.load(ha)&^hintMask|makeHint(r.ofp, idx))
	}
}

// clearEntry removes the entry at slot idx: the key word is zeroed and
// the value word keeps only its hint bits (which belong to the bucket,
// not to this entry). If the entry lived in an overflow bucket, its
// hint in the main bucket is cleared as well.
func clearEntry(m mem, seg uint64, idx int, h uint64) {
	m.store(slotAddr(seg, idx), 0)
	va := slotAddr(seg, idx) + 8
	m.store(va, m.load(va)&hintMask)
	b := mainBucket(h)
	if bucketOf(idx) == b {
		return
	}
	base := b * SlotsPerBucket
	for s := base; s < base+SlotsPerBucket; s++ {
		ha := slotAddr(seg, s) + 8
		hv := m.load(ha)
		if hintValid(hv) && hintIdx(hv) == idx {
			m.store(ha, hv&^hintMask)
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

// segSnap is a captured segment image that serves engine reads: the
// snapshot a split decodes and its transaction validates.
type segSnap struct {
	base  uint64
	words [SegmentSize / 8]uint64
}

func (s *segSnap) load(addr uint64) uint64 { return s.words[(addr-s.base)/8] }
func (s *segSnap) store(uint64, uint64)    { panic("core: store into snapshot") }

func (s *segSnap) read(addr uint64, dst []byte) {
	for i := range dst {
		a := addr + uint64(i) - s.base
		dst[i] = byte(s.words[a/8] >> (8 * (a % 8)))
	}
}

// keyWords loads every slot's key word of the segment through m into kws
// and returns how many are occupied: the number of entries decodeSegment
// will find among them.
func keyWords(m mem, seg uint64, kws *[SlotsPerSegment]uint64) (occupied int) {
	for s := range kws {
		kws[s] = m.load(slotAddr(seg, s))
		if keyOccupied(kws[s]) {
			occupied++
		}
	}
	return occupied
}

// decodeSegment appends to out the live entries among the segment's key
// words kws (as keyWords loaded them), reading their value words through m
// and their key hashes (re-hashing inline keys, reading key records raw
// for out-of-line ones).
func (h *Handle) decodeSegment(m mem, seg uint64, kws *[SlotsPerSegment]uint64, out *segEntries) {
	for s, kw := range kws {
		if !keyOccupied(kw) {
			continue
		}
		vw := m.load(slotAddr(seg, s) + 8)
		var kh uint64
		if keyIsInline(kw) {
			kh = hash.Sum64Uint64(wordPayload(kw))
		} else {
			h.keyBuf = readRecord(&h.raw, wordPayload(kw), h.keyBuf[:0])
			kh = hashKey(h.keyBuf)
		}
		out.add(segEntry{kw: kw, vw: vw &^ hintMask, h: kh})
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
