package core

import (
	"errors"
	"runtime"

	"spash/internal/alloc"
	"spash/internal/htm"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// errKVTooLarge rejects empty keys and oversized keys/values.
var errKVTooLarge = errors.New("core: key/value empty or exceeds MaxKVLen")

// Handle is a per-worker execution context: the worker's pmem context
// (virtual clock and counters), its allocator cache (thread-local free
// lists and the compacted-flush chunk) and scratch buffers. A Handle
// must not be used concurrently.
type Handle struct {
	ix *Index
	c  *pmem.Ctx
	ah *alloc.Handle
	// raw is the raw section over c: a lock mode's operations and split
	// preparation pass &raw, which boxes into a mem without allocating.
	raw rawMem
	// lane is this worker's private observability stripe (nil when
	// the registry is disabled; all methods nil-safe).
	lane *obs.Lane

	// span is the in-flight latency-attribution span, held by value so
	// the unsampled path never allocates (span.go). spanEvery is the
	// sampling period (0 = disabled); opSeq the per-worker op counter
	// driving the 1-in-spanEvery election.
	span      obs.Span
	spanEvery uint64
	opSeq     uint64

	// resizeEpoch is the last stop-the-world resize this worker
	// accounted for.
	resizeEpoch int64

	// batch is the pipeline scratch state (pipeline.go).
	batch batchState

	// snap, split and keyBuf are a split's working memory: the segment
	// snapshot its transaction validates, the plan it commits, and the
	// bytes of the out-of-line key being re-hashed. segBuf is where every
	// segment copy of this worker lands before it is decoded into words
	// (loadSegment). They live here so that a split and a seal check
	// allocate nothing.
	snap   [SegmentSize / 8]uint64
	split  splitPlan
	keyBuf []byte
	segBuf [SegmentSize]byte
}

// NewHandle returns a worker handle bound to ctx. Passing nil creates
// a fresh pmem context.
func (ix *Index) NewHandle(c *pmem.Ctx) *Handle {
	if c == nil {
		c = ix.pool.NewCtx()
	}
	h := &Handle{ix: ix, c: c, ah: ix.alloc.NewHandle(), raw: rawMem{ix.pool, c}, lane: ix.reg.Lane()}
	if ix.reg != nil && ix.cfg.SpanSample > 0 {
		h.spanEvery = uint64(ix.cfg.SpanSample)
	}
	return h
}

// Ctx returns the handle's pmem context.
func (h *Handle) Ctx() *pmem.Ctx { return h.c }

// Index returns the handle's index.
func (h *Handle) Index() *Index { return h.ix }

// Close returns the handle's cached resources.
func (h *Handle) Close() {
	h.ah.Close()
}

// exec runs body atomically against the authoritative segment for r:
// in an HTM transaction, or under r's stripe lock in the lock modes.
// body must be idempotent (it can run several times) and reset its
// captured outputs on entry; it performs all shared-memory access
// through m. readonly enables the lock-free/read-lock read paths of the
// lock modes.
func (h *Handle) exec(r *req, readonly bool, body func(m mem, seg uint64) error) error {
	// The corruption boundary wraps every mode's body: poisoned-media
	// and record-CRC panics become *CorruptionError returns, and (with
	// checksums on) the segment seal is verified before / recomputed
	// after the body (integrity.go).
	body = h.guardBody(readonly, body)
	if h.ix.stripes != nil {
		return h.execLocked(r, readonly, body)
	}
	ix := h.ix
	// A completed stop-the-world resize stalled every worker for its
	// duration; charge the expected overlap (half) once per epoch.
	if e := ix.resizeEpoch.Load(); e != h.resizeEpoch {
		h.c.Charge((e - h.resizeEpoch) * ix.lastResizeCost.Load() / 2)
		h.resizeEpoch = e
	}
	conflicts := 0
	for {
		attempt := h.spanAttempt()
		code, err := ix.tm.Run(h.c, ix.pool, func(tx *htm.Txn) error {
			_, entry, rerr := ix.resolveTx(tx, r.h)
			if rerr != nil {
				return rerr
			}
			return body(txMem{tx}, entrySeg(entry))
		})
		switch code {
		case htm.Committed:
			h.spanCommit(attempt)
			return nil
		case htm.Conflict:
			h.spanAbort(attempt)
			conflicts++
			if conflicts > ix.cfg.MaxTxRetries {
				return h.execFallback(r, body)
			}
		case htm.Capacity:
			h.spanAbort(attempt)
			return h.execFallback(r, body)
		case htm.Explicit:
			h.spanAbort(attempt)
			re, ok := err.(retryError)
			if !ok {
				return err
			}
			wait := h.spanLap()
			switch re {
			case errNeedSplit:
				if serr := ix.split(h, r.h); serr != nil {
					return serr
				}
			case errResizing:
				ix.waitResizeCtx(h.c)
			case errLocked:
				ix.waitUnlocked(r.h)
			default:
				// errSegMoved and friends: redo from preparation.
			}
			// Split/resize waits on the way count as retry cost.
			h.spanAdd(obs.PhaseHTMRetry, wait)
		}
	}
}

// execFallback is the two-phase protocol's fallback path (§IV-A): the
// per-segment lock — the lock bit of the segment's canonical covering
// directory entry — is taken, excluding new transactions on the whole
// segment (every transaction checks the canonical entry in resolveTx)
// and aborting in-flight ones (the CAS bumps the entry's stripe
// version).
// The body then runs raw, with bump-stores so optimistic readers of
// the touched lines abort cleanly.
func (h *Handle) execFallback(r *req, body func(m mem, seg uint64) error) error {
	ix := h.ix
	h.lane.Inc(obs.CLockFallbacks)
	// Everything up to the irrevocable body — lock spins, resize waits
	// — is retry cost; the body itself splits probe/publish like a
	// committed attempt.
	wait := h.spanLap()
	for {
		cPtr, ce, seg, ok := ix.resolveCanonicalNoWait(r.h)
		if !ok {
			ix.waitResize()
			continue
		}
		if entryLocked(ce) {
			ix.pool.CheckLive()
			runtime.Gosched()
			continue
		}
		if !ix.tm.BumpCASVol(h.c, cPtr, ce, ce|entryLock) {
			continue
		}
		// The canonical entry may have stopped being authoritative
		// between the read and the CAS (a doubling stage copied its
		// partition or is storing the copy, or a halving started).
		// Never block while holding the lock.
		cPtr2, _, seg2, ok2 := ix.resolveCanonicalNoWait(r.h)
		if !ok2 || cPtr2 != cPtr || seg2 != seg {
			ix.tm.BumpStoreVol(h.c, cPtr, ce)
			ix.waitResize()
			continue
		}
		h.spanAdd(obs.PhaseHTMRetry, wait)
		attempt := h.spanAttempt()
		err := ix.tm.Irrevocable(h.c, ix.pool, func(it *htm.ITxn) error {
			return body(iMem{it}, seg)
		})
		ix.tm.BumpStoreVol(h.c, cPtr, ce) // unlock
		if err == nil {
			h.spanCommit(attempt)
			return nil
		}
		if re, ok := err.(retryError); ok {
			h.spanAbort(attempt)
			wait = h.spanLap()
			if re == errNeedSplit {
				if serr := ix.split(h, r.h); serr != nil {
					return serr
				}
			}
			continue
		}
		return err
	}
}

// execLocked is exec under the lock-mode protocols of Fig 12(c): a
// writer holds r's stripe lock, splitting and (after dropping it)
// doubling on the way; a reader follows the stripe flavour's protocol.
func (h *Handle) execLocked(r *req, readonly bool, body func(m mem, seg uint64) error) error {
	ix, st := h.ix, h.ix.stripes
	stripe, raw := ix.stripeOf(r.h), &h.raw
	if readonly {
		for {
			seq := st.readBegin(h.c, stripe)
			_, e := ix.resolveRaw(r.h)
			err := body(raw, entrySeg(e))
			if st.readEnd(h.c, stripe, seq) {
				return err
			}
		}
	}
	for {
		st.lock(h.c, stripe)
		var err error
		var seg uint64
		var fullDir *directory
		for {
			_, e := ix.resolveRaw(r.h)
			seg = entrySeg(e)
			if err = body(raw, seg); err != errNeedSplit {
				break
			}
			fullDir = ix.dir.Load()
			if err = h.splitLocked(r.h); err != nil {
				break
			}
		}
		if err == nil && ix.cfg.PersistBarrier {
			// Classic ADR discipline: persist the modified bucket
			// before the operation returns.
			line := seg + uint64(mainBucket(r.h))*pmem.CachelineSize
			ix.pool.Flush(h.c, line, pmem.CachelineSize)
			ix.pool.Fence(h.c)
		}
		st.unlock(h.c, stripe)
		if err != errNeedDouble {
			return err
		}
		ix.doubleLocked(h.c, fullDir)
	}
}

// Search looks key up and, when found, appends its value to dst.
func (h *Handle) Search(key, dst []byte) ([]byte, bool, error) {
	r := makeReq(key)
	return h.search(&r, dst)
}

// search, insert, update and remove are the operations on a normalised
// request: the public methods build one per call, ExecBatch builds each
// of its requests' once and runs them here.
func (h *Handle) search(r *req, dst []byte) ([]byte, bool, error) {
	h.c.BeginOp()
	defer h.c.EndOp()
	h.beginSpan(obs.SpanGet, r.h)
	defer h.endSpan()
	found := false
	out := dst
	err := h.exec(r, true, func(m mem, seg uint64) error {
		found, out = false, dst
		ps := h.spanLap()
		idx, _, vw, pr, _ := h.ix.locate(m, h.c, seg, r, true)
		h.spanProbe(ps)
		h.lane.Observe(obs.HProbeLen, pr)
		if idx < 0 {
			return nil
		}
		found = true
		if h.ix.sealAddr == 0 || valueIsInline(vw) {
			out = loadValue(m, vw, dst)
			return nil
		}
		var ok bool
		if out, ok = readCheckedRecord(m, wordPayload(vw), dst); !ok {
			// The slot is sealed but the out-of-line record it points
			// at is rotten: fail typed rather than return wrong bytes.
			return &CorruptionError{Seg: seg, Bucket: bucketOf(idx),
				Cause: ErrRecordChecksum}
		}
		return nil
	})
	if err != nil {
		return dst, false, err
	}
	return out, found, nil
}

// Insert inserts key→val, replacing any existing value (upsert).
// Out-of-line records are prepared before the atomic section: under
// the compacted-flush policy (§III-C) small records are appended to
// the handle's XPLine chunk and flushed once per chunk.
func (h *Handle) Insert(key, val []byte) error {
	r := makeReq(key)
	return h.insert(&r, val)
}

func (h *Handle) insert(r *req, val []byte) error {
	key := r.key
	if len(key) == 0 || len(key) > MaxKVLen || len(val) > MaxKVLen {
		return errKVTooLarge
	}
	h.c.BeginOp()
	defer h.c.EndOp()
	h.beginSpan(obs.SpanInsert, r.h)
	defer h.endSpan()

	kpay, kInline := r.kpay, r.kInline
	if !kInline {
		addr, err := h.allocRecord(key)
		if err != nil {
			return err
		}
		kpay = addr
	}
	kw := makeKeyWord(kInline, r.fp, kpay)

	vpay, vInline := inlineValuePayload(val)
	if !vInline {
		addr, err := h.allocRecord(val)
		if err != nil {
			if !kInline {
				h.freeRecord(kpay, len(key))
			}
			return err
		}
		vpay = addr
	}
	vwBase := makeValueWord(vInline, vpay)

	replaced := false
	var freeVal uint64
	freeValLen := 0
	err := h.exec(r, false, func(m mem, seg uint64) error {
		replaced, freeVal, freeValLen = false, 0, 0
		ps := h.spanLap()
		idx, _, oldVW, pr, main := h.ix.locate(m, h.c, seg, r, false)
		h.spanProbe(ps)
		h.lane.Observe(obs.HProbeLen, pr)
		if idx >= 0 {
			va := slotAddr(seg, idx) + 8
			m.store(va, oldVW&hintMask|vwBase)
			replaced = true
			if !valueIsInline(oldVW) {
				freeVal = wordPayload(oldVW)
				freeValLen = recordLen(m, freeVal)
			}
			return nil
		}
		free, ok := findFree(m, seg, r.h, &main)
		if !ok {
			return errNeedSplit
		}
		placeEntry(m, seg, free, r, kw, vwBase)
		return nil
	})
	if err != nil {
		// Nothing was published (a failed split's ErrOutOfMemory, a typed
		// corruption error): the records carved above go back.
		if !kInline {
			h.freeRecord(kpay, len(key))
		}
		if !vInline {
			h.freeRecord(vpay, len(val))
		}
		return err
	}
	if replaced {
		// The existing slot keeps its original key record.
		if !kInline {
			h.freeRecord(kpay, len(key))
		}
		if freeVal != 0 {
			h.freeRecord(freeVal, freeValLen)
		}
	} else {
		h.ix.entries.Add(1)
	}
	return nil
}

// Update replaces the value of an existing key using the adaptive
// in-place strategy (§III-B): same-class out-of-line values are
// overwritten in place inside the atomic section; the flush decision
// afterwards follows the configured policy and the hotspot detector.
// Returns false when the key is absent.
func (h *Handle) Update(key, val []byte) (bool, error) {
	r := makeReq(key)
	return h.update(&r, val)
}

// errNeedRecord is update's body asking for a fresh out-of-line record:
// the old value is inline or in another size class, so it cannot be
// overwritten in place. The body stores nothing before returning it, and
// update answers it with one more attempt; it never leaves update.
var errNeedRecord = errors.New("core: update needs a fresh record")

// testHookUpdateCarved, when set, runs between the attempt that asked for
// a fresh record and the one that publishes it.
var testHookUpdateCarved func()

func (h *Handle) update(r *req, val []byte) (bool, error) {
	if len(r.key) == 0 || len(r.key) > MaxKVLen || len(val) > MaxKVLen {
		return false, errKVTooLarge
	}
	h.c.BeginOp()
	defer h.c.EndOp()
	h.beginSpan(obs.SpanUpdate, r.h)
	defer h.endSpan()
	vpay, vInline := inlineValuePayload(val)

	// newAddr is carved only when an attempt finds that the value cannot
	// be overwritten in place.
	var newAddr uint64
	found, usedNew := false, false
	var freeOld, flushAddr uint64
	freeOldLen := 0
	body := func(m mem, seg uint64) error {
		found, usedNew, freeOld, freeOldLen, flushAddr = false, false, 0, 0, 0
		ps := h.spanLap()
		idx, _, vw, pr, _ := h.ix.locate(m, h.c, seg, r, false)
		h.spanProbe(ps)
		h.lane.Observe(obs.HProbeLen, pr)
		if idx < 0 {
			return nil
		}
		found = true
		va := slotAddr(seg, idx) + 8
		if vInline {
			m.store(va, vw&hintMask|makeValueWord(true, vpay))
			if !valueIsInline(vw) {
				freeOld = wordPayload(vw)
				freeOldLen = recordLen(m, freeOld)
			}
			return nil
		}
		if !valueIsInline(vw) {
			old := wordPayload(vw)
			oldLen := recordLen(m, old)
			if h.recordAllocSize(oldLen) == h.recordAllocSize(len(val)) {
				writeRecordValue(m, old, val)
				flushAddr = old
				return nil
			}
			freeOld = old
			freeOldLen = oldLen
		}
		if newAddr == 0 {
			return errNeedRecord
		}
		m.store(va, vw&hintMask|makeValueWord(false, newAddr))
		usedNew = true
		flushAddr = newAddr
		return nil
	}
	err := h.exec(r, false, body)
	if err == errNeedRecord {
		if newAddr, err = h.allocRecord(val); err != nil {
			return false, err
		}
		if testHookUpdateCarved != nil {
			testHookUpdateCarved()
		}
		err = h.exec(r, false, body)
	}
	// A change between the two attempts (a delete, an update into the
	// old value's class) can leave the carved record unused.
	if newAddr != 0 && (err != nil || !found || !usedNew) {
		h.freeRecord(newAddr, len(val))
	}
	if err != nil || !found {
		return false, err
	}
	if usedNew {
		h.lane.Inc(obs.CUpdateAppend)
	} else {
		h.lane.Inc(obs.CUpdateInPlace)
	}
	if freeOld != 0 {
		h.freeRecord(freeOld, freeOldLen)
	}
	h.updateFlushPolicy(r, flushAddr, len(val))
	return true, nil
}

// updateFlushPolicy applies Table I after a committed update: hot
// entries and small entries are left to the persistent cache; cold
// entries larger than a cacheline are flushed asynchronously to avoid
// eviction-order write amplification.
func (h *Handle) updateFlushPolicy(r *req, recAddr uint64, size int) {
	ix := h.ix
	switch ix.cfg.Update {
	//spash:allow flushfence -- Table I "w/o flush" mode: durability is deliberately delegated to the persistent cache (eADR)
	case UpdateNeverFlush:
		return
	case UpdateAlwaysFlush:
		if recAddr != 0 {
			fs := h.spanLap()
			ix.pool.Flush(h.c, recAddr, uint64(recordSpace(size)))
			h.spanAdd(obs.PhaseMediaFlush, fs)
			h.lane.Inc(obs.CUpdateFlushes)
		}
		return
	//spash:allow flushfence -- hot entries stay cache-resident by design (Table I); the cold path falls through to the flush below the switch
	case UpdateOracle:
		if ix.cfg.OracleHot != nil && ix.cfg.OracleHot(r.h) {
			h.lane.Inc(obs.CFlushSkipHot)
			return
		}
	//spash:allow flushfence -- adaptive mode skips the flush only for entries the hot tracker says are cache-resident; cold entries fall through to the flush below
	default: // UpdateAdaptive
		if ix.hot.touch(r.h) {
			h.lane.Inc(obs.CFlushSkipHot)
			return
		}
	}
	// Cold: flush only multi-cacheline entries.
	if recAddr != 0 && size > pmem.CachelineSize {
		fs := h.spanLap()
		ix.pool.Flush(h.c, recAddr, uint64(recordSpace(size)))
		h.spanAdd(obs.PhaseMediaFlush, fs)
		h.lane.Inc(obs.CUpdateFlushes)
	} else {
		h.lane.Inc(obs.CFlushSkipSmall)
	}
}

// Delete removes key, returning whether it was present. One delete in
// 16, chosen by four bits of the key's hash, then tries to merge the
// key's segment with its buddy (TryMerge).
func (h *Handle) Delete(key []byte) (bool, error) {
	r := makeReq(key)
	return h.remove(&r)
}

func (h *Handle) remove(r *req) (bool, error) {
	h.c.BeginOp()
	defer h.c.EndOp()
	h.beginSpan(obs.SpanDelete, r.h)
	defer h.endSpan()
	found := false
	var freeKey, freeVal uint64
	freeValLen := 0
	err := h.exec(r, false, func(m mem, seg uint64) error {
		found, freeKey, freeVal, freeValLen = false, 0, 0, 0
		ps := h.spanLap()
		idx, kw, vw, pr, main := h.ix.locate(m, h.c, seg, r, false)
		h.spanProbe(ps)
		h.lane.Observe(obs.HProbeLen, pr)
		if idx < 0 {
			return nil
		}
		found = true
		if !keyIsInline(kw) {
			freeKey = wordPayload(kw)
		}
		if !valueIsInline(vw) {
			freeVal = wordPayload(vw)
			freeValLen = recordLen(m, freeVal)
		}
		clearEntry(m, seg, idx, vw, &main, r.h)
		return nil
	})
	if err != nil || !found {
		return false, err
	}
	if freeKey != 0 {
		h.freeRecord(freeKey, len(r.key))
	}
	if freeVal != 0 {
		h.freeRecord(freeVal, freeValLen)
	}
	h.ix.entries.Add(-1)
	// Close the span before the sampled merge attempt: structural
	// maintenance is not part of this delete's latency story.
	h.endSpan()
	if r.h>>32&0xF == 0 {
		h.TryMerge(r.key)
	}
	return true, nil
}

// allocRecord allocates and writes an out-of-line record for data,
// applying the configured insertion policy's placement and flushing.
func (h *Handle) allocRecord(data []byte) (uint64, error) {
	space := h.recordAllocSize(len(data))
	addr, filledChunk, err := h.ah.Alloc(h.c, space)
	if err != nil {
		return 0, err
	}
	writeRecordRaw(h.c, h.ix.pool, addr, data)
	switch h.ix.cfg.Insert {
	case InsertCompactedFlush:
		if filledChunk != 0 {
			// One XPLine write-back for the whole compacted chunk.
			fs := h.spanLap()
			h.ix.pool.Flush(h.c, filledChunk, pmem.XPLineSize)
			h.spanAdd(obs.PhaseMediaFlush, fs)
			h.lane.Inc(obs.CChunkFlushes)
		} else if space > 128 {
			// Large cold record: flush to avoid eviction-order
			// amplification (DP2).
			fs := h.spanLap()
			h.ix.pool.Flush(h.c, addr, uint64(recordSpace(len(data))))
			h.spanAdd(obs.PhaseMediaFlush, fs)
			h.lane.Inc(obs.CRecordFlushes)
		}
	case InsertNoCompact:
		fs := h.spanLap()
		h.ix.pool.Flush(h.c, addr, uint64(recordSpace(len(data))))
		h.spanAdd(obs.PhaseMediaFlush, fs)
		h.lane.Inc(obs.CRecordFlushes)
	//spash:allow flushfence -- §III-C compact-no-flush mode: small records are absorbed by the persistent cache and written back on eviction
	case InsertCompactNoFlush:
		// Leave everything to cache eviction.
	}
	return addr, nil
}

// recordAllocSize is the allocation request for a record of n payload
// bytes under the configured insertion policy (InsertNoCompact denies
// small records the XPLine-chunk classes).
func (h *Handle) recordAllocSize(n int) int {
	space := recordSpace(n)
	if h.ix.cfg.Insert == InsertNoCompact && space <= 128 {
		return pmem.XPLineSize
	}
	return alloc.ClassSize(space)
}

// freeRecord returns a record's block to the allocator.
func (h *Handle) freeRecord(addr uint64, payloadLen int) {
	h.ah.Free(h.c, addr, h.recordAllocSize(payloadLen))
}
