package core

import (
	"sync/atomic"

	"spash/internal/obs"
	"spash/internal/pmem"
)

// OpKind is the operation type of a batched request.
type OpKind uint8

const (
	OpSearch OpKind = iota
	OpUpdate
	OpInsert
	OpDelete
)

// BatchOp is one request of a pipelined batch. After ExecBatch
// returns, Result/Found/Err hold the outcome (Result is valid for
// searches and aliases ResultBuf's backing array when provided).
type BatchOp struct {
	Kind  OpKind
	Key   []byte
	Value []byte
	// ResultBuf, if non-nil, receives the search result (appended).
	ResultBuf []byte

	Result []byte
	Found  bool
	Err    error
}

// batchState is per-handle pipeline scratch: the batch's normalised
// requests and, on the handle that splits a batch over shards, the
// partition — positions grouped by shard, and where each group ends.
type batchState struct {
	reqs []req
	at   []int32
	end  []int
}

// prepare normalises every request of ops once (hash, fingerprints,
// inline encoding): reqs[i] serves ops[i] for routing, for every pipeline
// stage and for the operation itself.
func (b *batchState) prepare(ops []BatchOp) []req {
	if cap(b.reqs) < len(ops) {
		b.reqs = make([]req, len(ops))
	}
	reqs := b.reqs[:len(ops)]
	for i := range ops {
		reqs[i] = makeReq(ops[i].Key)
	}
	return reqs
}

// ExecBatch executes ops with the pipelined execution of §III-D: the
// preparation of request i+PD-1 (directory resolution and an
// asynchronous prefetch of the target bucket's cacheline) is issued
// before request i executes, so up to PipelineDepth PM reads are in
// flight per worker and their latencies overlap. With PipelineDepth=1
// the batch degenerates to sequential execution.
func (h *Handle) ExecBatch(ops []BatchOp) {
	reqs := h.batch.prepare(ops)
	h.execBatch(ops, reqs, nil)
	clear(reqs) // the keys alias the caller's buffers
}

// ExecSplit is ExecBatch over hs, one handle per shard: request i runs
// on hs[route(hash of its key, len(hs))], each shard's requests as one
// pipelined batch in their original order, results in place in ops. The
// partition is a counting sort into hs[0]'s scratch; ops are not copied.
func ExecSplit(hs []*Handle, ops []BatchOp, route func(h uint64, n int) int) {
	b, n := &hs[0].batch, len(hs)
	reqs := b.prepare(ops)
	if cap(b.at) < len(ops) {
		b.at = make([]int32, len(ops))
	}
	b.end = append(b.end[:0], make([]int, n)...)
	for i := range reqs {
		b.end[route(reqs[i].h, n)]++
	}
	for s, sum := 0, 0; s < n; s++ {
		b.end[s], sum = sum, sum+b.end[s] // group starts, for now
	}
	for i := range reqs {
		s := route(reqs[i].h, n)
		b.at[b.end[s]] = int32(i)
		b.end[s]++
	}
	start := 0
	for s, h := range hs {
		if end := b.end[s]; end > start {
			h.execBatch(ops, reqs, b.at[start:end])
			start = end
		}
	}
	clear(reqs)
}

// Look-ahead distances of the pipeline's hint stages, in requests past
// PipelineDepth (the sweep is in EXPERIMENTS.md). A stage reads what the
// stage before it asked the host to fetch, so each runs at least one
// request behind the last; both stay ahead of the bucket stage, which
// loads the directory entry and enters the bucket's cache set.
// hintValueLines is how much of a value record the record hint asks for:
// the record's length is in its first word, which a hint does not read.
const (
	hintDirAhead    = 3
	hintBucketAhead = 1
	hintValueLines  = 2
)

// execBatch is the one pipeline. It runs the requests ops[at[k]] (all of
// ops when at is nil) in order, as two software pipelines on two clocks.
//
// The virtual one is the paper's. prefetchOp books request k+PD's bucket
// load on the simulated device before request k executes, and with
// PipelineDepth ≥ 2 prefetchRecords books a request's key and value
// records, found through its bucket's fingerprints, once that bucket has
// arrived: the stage's cursor rec is the next request it has not run for,
// and before request k executes it runs for every request up to k+1,
// waiting for the bucket if it must, and then for each later one below
// k+PD whose bucket has already arrived on the context's clock (or whose
// key inlines: its stage is a no-op), stopping at the first that has not.
// So a record load starts as soon as the line that names it is in, as
// asynchronous memory-access chaining does, never later than one request
// ahead, and further ahead never at the cost of a wait (EXPERIMENTS.md
// "Arrival-driven record stage"). In front of them, on the wall clock
// only, three hint stages ask the host to fetch what the later stages
// and the operation will miss on — the directory entry, then the bucket
// line, then, just before the record stage, the records a fingerprint
// match in the bucket names — each with its cache set and version word. A hint changes no
// simulated state (pmem.Pool.Hint), so the virtual stages' order and
// accounting are exactly those of a batch run without them. A batch of
// one has nothing to overlap and skips every stage but its bucket's.
func (h *Handle) execBatch(ops []BatchOp, reqs []req, at []int32) {
	h.c.BeginOp()
	defer h.c.EndOp()
	h.lane.Inc(obs.CPipelineBatches)
	pd := max(h.ix.cfg.PipelineDepth, 1)
	n := len(ops)
	if at != nil {
		n = len(at)
	}
	pos := func(k int) int {
		if at != nil {
			return int(at[k])
		}
		return k
	}
	// stage runs one stage for request k, if the batch has one.
	stage := func(k int, fn func(r *req)) {
		if k < n {
			fn(&reqs[pos(k)])
		}
	}
	if n == 1 {
		h.prefetchOp(&reqs[pos(0)])
		h.execOp(&reqs[pos(0)], &ops[pos(0)])
		return
	}
	// The ramp runs each stage over its whole look-ahead before the next
	// stage starts, so the first requests' misses overlap each other
	// instead of being waited out one stage after another.
	ramp := func(d int, fn func(r *req)) {
		for k := 0; k < d; k++ {
			stage(k, fn)
		}
	}
	// due reports whether the record stage runs for request j, its
	// cursor, before request k executes: j is k+1 or earlier, or below
	// k+PD with its bucket in (an inline key's stage is a no-op).
	due := func(j, k int) bool {
		switch {
		case j >= n:
			return false
		case j <= k+1:
			return true
		}
		r := &reqs[pos(j)]
		return j < k+pd && (r.kInline || r.arrives <= h.c.Clock())
	}
	// records runs the record stage for request j. At PipelineDepth 1
	// the bucket it reads was prefetched just before, so there is nothing
	// for it to overlap (EXPERIMENTS.md): only the host hint runs.
	records := func(j int) {
		r := &reqs[pos(j)]
		h.hintRecords(r)
		if pd > 1 {
			h.prefetchRecords(r, ops[pos(j)].Kind == OpSearch)
		}
	}
	ramp(pd+hintDirAhead, h.hintDir)
	ramp(pd+hintBucketAhead, h.hintBucket)
	ramp(pd, h.prefetchOp)
	for k, rec := 0, 0; k < n; k++ {
		stage(k+pd+hintDirAhead, h.hintDir)
		stage(k+pd+hintBucketAhead, h.hintBucket)
		stage(k+pd, h.prefetchOp)
		for ; due(rec, k); rec++ {
			records(rec)
		}
		h.execOp(&reqs[pos(k)], &ops[pos(k)])
	}
}

// hintDir is the first hint stage: the request's directory entry and
// the version word guarding it. Nothing is read but the generation, so
// nothing is waited for; during a resize the stage is skipped.
func (h *Handle) hintDir(r *req) {
	if ix := h.ix; atomic.LoadUint64(&ix.dirGen)&1 == 0 {
		d := ix.dir.Load()
		ix.tm.HintVol(&d.entries[d.index(r.h)])
	}
}

// hintBucket is the second: it reads the entry hintDir asked for and
// hints the main bucket's line. r.bucket keeps the address until
// prefetchOp replaces it with the one it resolved (0: unknown, a
// stop-the-world resize is in progress).
func (h *Handle) hintBucket(r *req) {
	r.bucket = 0
	if _, e, ok := h.ix.resolveRawNoWait(r.h); ok {
		r.bucket = mainBucketAddr(e, r.h)
		h.ix.tm.Hint(h.ix.pool, r.bucket)
	}
}

// hintRecords is the third, just before execution: peek the bucket's
// four slots and, for each fingerprint match (almost always the one
// entry the operation will settle on), hint the out-of-line key record
// and the first lines of the value record. The peek is unvalidated — the
// segment may have split or been freed and reused since hintBucket — so
// the words may be garbage; all that costs is a useless or dropped hint.
func (h *Handle) hintRecords(r *req) {
	if r.bucket == 0 {
		return
	}
	pool, tm := h.ix.pool, h.ix.tm
	for a := r.bucket; a < r.bucket+pmem.CachelineSize; a += slotSize {
		kw := pool.Peek(a)
		if !keyOccupied(kw) || keyFP(kw) != r.fp {
			continue
		}
		if !keyIsInline(kw) {
			pool.Hint(wordPayload(kw)) // read raw: no version word
		}
		if vw := pool.Peek(a + 8); !valueIsInline(vw) {
			for l := uint64(0); l < hintValueLines; l++ {
				tm.Hint(pool, wordPayload(vw)+l*pmem.CachelineSize)
			}
		}
	}
}

// prefetchOp performs the virtual pipeline's preparation stage for one
// request: resolve the segment through the volatile directory (step 1)
// and start the asynchronous load of the main bucket (step 2), whose
// address r.bucket and arrival time r.arrives it keeps for the record
// stage.
func (h *Handle) prefetchOp(r *req) {
	_, e := h.ix.resolveRaw(r.h)
	r.bucket = mainBucketAddr(e, r.h)
	h.ix.pool.Prefetch(h.c, r.bucket)
	r.arrives = h.c.Arrives(r.bucket)
}

// prefetchRecords is the virtual pipeline's record stage, run on a later
// request before request k executes — k+1 at the latest, further ahead
// once its bucket has arrived (execBatch): it loads the request's main
// bucket, which prefetchOp asked for at least one request earlier, and
// for each slot whose fingerprint matches starts the asynchronous load of
// what the operation will read there — the key record, for the compare, and the
// value record's lines (prefetchValue). So the operation finds every
// record line in flight instead of missing on the key record and then on
// the value record one after the other, and its probe, told so by
// r.loaded, asks for none of them again (Index.locate). When no slot's
// fingerprint matches, the entry, if any, is behind a hint: the stage
// asks the host for, and starts the load of, each overflow bucket a hint
// with r's overflow fingerprint names; the probe asks for its records.
//
// It runs only for keys that do not inline: an inline key is compared in
// the slot. The bucket's words are unvalidated — the segment may have
// split, merged or been freed since prefetchOp — and this stage runs
// outside the operation's corruption guard, so a poisoned bucket line is
// skipped (pmem.Pool.LoadPrefetched) and the records are asked for as
// prefetchValue asks; garbage costs only loads no operation makes. The
// stage stops at the first line the context has no room for
// (pmem.Pool.Prefetch): a large value's remaining lines are the
// operation's own misses.
func (h *Handle) prefetchRecords(r *req, get bool) {
	ix := h.ix
	var b pmem.Line
	if r.kInline || !ix.pool.LoadPrefetched(h.c, r.bucket, &b) {
		return
	}
	r.loaded = r.bucket
	matched := false
	for s := 0; s < SlotsPerBucket; s++ {
		kw, vw := b[2*s], b[2*s+1]
		if !keyOccupied(kw) || keyIsInline(kw) || keyFP(kw) != r.fp {
			continue
		}
		matched = true
		if !ix.prefetchLines(h.c, wordPayload(kw), recordSpace(len(r.key))) ||
			!ix.prefetchValue(h.c, vw, get) {
			return
		}
	}
	seg := r.bucket - uint64(mainBucket(r.h))*pmem.CachelineSize
	for s := 0; s < SlotsPerBucket && !matched; s++ {
		if hv := b[2*s+1]; hintValid(hv) && hintFP(hv) == r.ofp {
			a := seg + uint64(bucketOf(hintIdx(hv)))*pmem.CachelineSize
			ix.tm.Hint(ix.pool, a) // no hint stage has seen this bucket's address
			ix.prefetchLines(h.c, a, pmem.CachelineSize)
		}
	}
}

// prefetchValue starts the asynchronous load of what an operation will
// read of the value record vw names, if it is out of line: every line for
// a Get (whole), the header line, with the length, for the writes. The
// length comes from a peek at the header, what the operation's own read
// will find there; past MaxKVLen, where that read stops too, only the
// header is asked for. vw may be garbage, read from a bucket the caller
// has not validated, so a record outside the pool is not asked for and a
// misaligned one peeks a length of 0. It reports false if the context ran
// out of room for loads in flight.
func (ix *Index) prefetchValue(c *pmem.Ctx, vw uint64, whole bool) bool {
	if valueIsInline(vw) {
		return true
	}
	v, span := wordPayload(vw), recordHeader
	if whole {
		if n := int(ix.pool.Peek(v) & recordLenMask); n <= MaxKVLen {
			span = recordSpace(n)
		}
	}
	return ix.prefetchLines(c, v, span)
}

// prefetchLines starts the asynchronous load of every line of
// [addr, addr+n), unless part of it lies outside the pool. It reports
// false if the context ran out of room for loads in flight.
func (ix *Index) prefetchLines(c *pmem.Ctx, addr uint64, n int) bool {
	end := addr + uint64(n)
	if end < addr || end > ix.pool.Size() {
		return true
	}
	for l := addr &^ (pmem.CachelineSize - 1); l < end; l += pmem.CachelineSize {
		if !ix.pool.Prefetch(c, l) {
			return false
		}
	}
	return true
}

// mainBucketAddr is the address of hash h's main bucket in the segment
// directory entry e points at.
func mainBucketAddr(e, h uint64) uint64 {
	return entrySeg(e) + uint64(mainBucket(h))*pmem.CachelineSize
}

// execOp completes one batched request.
func (h *Handle) execOp(r *req, op *BatchOp) {
	switch op.Kind {
	case OpSearch:
		op.Result, op.Found, op.Err = h.search(r, op.ResultBuf)
	case OpUpdate:
		op.Found, op.Err = h.update(r, op.Value)
	case OpInsert:
		op.Err = h.insert(r, op.Value)
		op.Found = op.Err == nil
	case OpDelete:
		op.Found, op.Err = h.remove(r)
	}
}
