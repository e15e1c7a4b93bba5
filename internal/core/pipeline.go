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

// Look-ahead distances of the host-only hint stages, in requests (the
// sweep is in EXPERIMENTS.md). A stage reads what the stage before it
// asked the host to fetch, so each runs at least one request behind the
// last; the first two stay ahead of the virtual stage, which loads the
// directory entry and enters the bucket's cache set. hintValueLines is
// how much of a value record the last stage asks for: the record's
// length is in its first word, which a hint does not read.
const (
	hintDirAhead     = 3 // + PipelineDepth
	hintBucketAhead  = 1 // + PipelineDepth
	hintRecordsAhead = 1
	hintValueLines   = 2
)

// execBatch is the one pipeline. It runs the requests ops[at[k]] (all of
// ops when at is nil) in order, as two software pipelines on two clocks.
//
// The virtual one is the paper's: prefetchOp books request k+PD's bucket
// load on the simulated device before request k executes. In front of
// it, on the wall clock only, three hint stages ask the host to fetch
// what the later stages and the operation will miss on — the directory
// entry, then the bucket line, then the records a fingerprint match in
// the bucket names — each with its cache set and version word. A hint
// changes no simulated state (pmem.Pool.Hint), so the virtual stage's
// order and accounting are exactly those of a batch run without them. A
// batch of one has nothing to overlap and skips them.
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
	ramp(pd+hintDirAhead, h.hintDir)
	ramp(pd+hintBucketAhead, h.hintBucket)
	ramp(pd, h.prefetchOp)
	ramp(hintRecordsAhead, h.hintRecords)
	for k := 0; k < n; k++ {
		stage(k+pd+hintDirAhead, h.hintDir)
		stage(k+pd+hintBucketAhead, h.hintBucket)
		stage(k+pd, h.prefetchOp)
		stage(k+hintRecordsAhead, h.hintRecords)
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
// hints the main bucket's line. r.bucket keeps the address for
// hintRecords (0: unknown, a halving is in progress).
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
// and start the asynchronous load of the main bucket (step 2).
func (h *Handle) prefetchOp(r *req) {
	_, e := h.ix.resolveRaw(r.h)
	h.ix.pool.Prefetch(h.c, mainBucketAddr(e, r.h))
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
