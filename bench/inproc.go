package main

import (
	"fmt"
	"sync"
	"time"

	"spash"
	"spash/internal/ycsb"
)

// openAndLoad opens a fresh DB with an explicit shard count (never the
// GOMAXPROCS default, so numbers do not depend on the host) and inserts
// ids [0, records) through one session: a pure Insert stream that takes
// the index through every directory doubling on the way.
func openAndLoad(sp spec, ks keyspace) (*spash.DB, error) {
	db, err := spash.Open(spash.Options{Shards: sp.shards, Platform: spash.DefaultPlatform()})
	if err != nil {
		return nil, err
	}
	s := db.Session()
	defer s.Close()
	var key []byte
	val := make([]byte, 64)
	for id := uint64(0); id < uint64(sp.records); id++ {
		key = ks.key(key, id)
		if err := s.Insert(key, ks.value(val, id, 0)); err != nil {
			return nil, fmt.Errorf("load id %d: %w", id, err)
		}
	}
	return db, nil
}

// newZipf returns the scrambled-zipfian (theta 0.99) key chooser of a
// workload with updates, nil for the uniform workloads. Workers fork it.
func newZipf(sp spec, seed int64) *ycsb.Scrambled {
	if sp.mix.update == 0 {
		return nil
	}
	return ycsb.NewScrambled(uint64(sp.keys), ycsb.DefaultTheta, seed)
}

// worker is one closed-loop caller with its own Session: it sends its
// next request only when the previous one has returned.
type worker struct {
	ks     keyspace
	sess   *spash.Session
	st     *stream
	origin time.Time

	key, val, dst, scratch []byte
	stamp                  uint64 // writer id in the top byte, sequence below

	lat               []int32 // wall ns of timed Session calls
	attempted, failed int64
	// faultAt flips a byte of the first value returned at or after that
	// op, before the oracle sees it (tests only; -1 is off).
	faultAt int64

	// Traced reps only.
	tr      *tracer
	kindLat [numOpKinds][]int32
	virtLat []int32 // virtual-clock ns per op
}

func (w *worker) fail(o op, what string, err error) {
	w.failed++
	if w.failed <= 5 {
		fmt.Printf("FAIL worker %d: %s kind=%d id=%d err=%v\n", w.st.worker, what, o.kind, o.id, err)
	}
}

// begin starts timing a Session call (and its span in a traced rep).
func (w *worker) begin(timed bool, name spanName, root int32, req uint32) (int64, int32) {
	if !timed {
		return 0, -1
	}
	if w.tr != nil {
		sp := w.tr.begin(name, root, req)
		return w.tr.spans[sp].Start, sp
	}
	return int64(time.Since(w.origin)), -1
}

func (w *worker) finish(timed bool, t0 int64, sp int32, kind opKind) {
	if !timed {
		return
	}
	if w.tr == nil {
		w.lat = append(w.lat, int32(int64(time.Since(w.origin))-t0))
		return
	}
	w.tr.end(sp)
	d := int32(w.tr.spans[sp].End - t0)
	w.lat = append(w.lat, d)
	w.kindLat[kind] = append(w.kindLat[kind], d)
}

// exec issues one request and checks the reply against the oracle.
func (w *worker) exec(o op, timed bool, root int32, req uint32) {
	w.attempted++
	w.key = w.ks.key(w.key, o.id)
	switch o.kind {
	case opGet:
		t0, sp := w.begin(timed, spGet, root, req)
		val, found, err := w.sess.Get(w.key, w.dst[:0])
		w.finish(timed, t0, sp, opGet)
		w.dst = val
		if found && w.faultAt >= 0 && w.attempted > w.faultAt {
			val[len(val)-1] ^= 0x01
			w.faultAt = -1
		}
		switch {
		case err != nil:
			w.fail(o, "get error", err)
		case found == o.absent:
			w.fail(o, "found/absent mismatch", nil)
		case found && !w.ks.wellFormed(val, o.id, w.scratch):
			w.fail(o, "malformed value", nil)
		}
	case opUpdate:
		w.stamp++
		v := w.ks.value(w.val, o.id, w.stamp)
		t0, sp := w.begin(timed, spUpdate, root, req)
		found, err := w.sess.Update(w.key, v)
		w.finish(timed, t0, sp, opUpdate)
		if err != nil || !found {
			w.fail(o, "update", err)
		}
	case opInsert:
		w.stamp++
		v := w.ks.value(w.val, o.id, w.stamp)
		t0, sp := w.begin(timed, spInsert, root, req)
		err := w.sess.Insert(w.key, v)
		w.finish(timed, t0, sp, opInsert)
		if err != nil {
			w.fail(o, "insert", err)
		}
	case opDelete:
		t0, sp := w.begin(timed, spDelete, root, req)
		found, err := w.sess.Delete(w.key)
		w.finish(timed, t0, sp, opDelete)
		if err != nil || !found {
			w.fail(o, "delete", err)
		}
	}
}

// run issues n requests. Untraced, every latencyEvery-th call is timed;
// traced, every request gets a root span, a child span around the Session
// call, and its virtual-clock cost.
func (w *worker) run(n int) {
	ctx := w.sess.ShardCtx(0)
	for i := 0; i < n; i++ {
		if w.tr == nil {
			w.exec(w.st.next(), i%latencyEvery == 0, -1, 0)
			continue
		}
		root := w.tr.begin(spOp, -1, uint32(i))
		v0 := ctx.Clock()
		w.exec(w.st.next(), true, root, uint32(i))
		w.virtLat = append(w.virtLat, int32(ctx.Clock()-v0))
		w.tr.end(root)
	}
}

// inproc drives the library the way a Go caller does.
type inproc struct {
	cfg     runConfig
	sp      spec
	wl      int
	ks      keyspace
	db      *spash.DB
	workers []*worker
	virt0   []int64
}

func (e *inproc) setup() error {
	db, err := openAndLoad(e.sp, e.ks)
	if err != nil {
		return err
	}
	e.db = db
	zipf := newZipf(e.sp, e.cfg.seed)
	origin := time.Now()
	e.workers = nil
	for i := 0; i < e.sp.workers; i++ {
		e.workers = append(e.workers, &worker{
			ks: e.ks, sess: db.Session(), st: newStream(e.sp, i, zipf), origin: origin,
			val: make([]byte, 64), scratch: make([]byte, 64),
			stamp: uint64(i+1) << 56, faultAt: -1,
		})
	}
	e.workers[0].faultAt, e.cfg.faultAt = e.cfg.faultAt, -1 // fires once per run
	e.virt0 = make([]int64, len(e.workers))
	return nil
}

func (e *inproc) target() target {
	return target{
		db: e.db,
		virtReset: func() {
			for i, w := range e.workers {
				e.virt0[i] = w.sess.ShardCtx(0).Clock()
			}
		},
		virtRead: func() int64 {
			var d int64
			for i, w := range e.workers {
				d += w.sess.ShardCtx(0).Clock() - e.virt0[i]
			}
			return d
		},
	}
}

// rep runs one repetition: every worker issues its share of the ops.
func (e *inproc) rep(rep, ops int, tr *traceSink) (int64, []int32) {
	per := ops / len(e.workers)
	for _, w := range e.workers {
		w.st.reseed(e.cfg.seed, e.wl, rep)
		need := per/latencyEvery + 1
		if tr != nil {
			need = per
		}
		if cap(w.lat) < need {
			w.lat = make([]int32, 0, need)
		}
		w.lat = w.lat[:0]
		w.tr = nil
		if tr != nil {
			w.tr = newTracer(tr.t0, 2*per)
			w.virtLat = make([]int32, 0, per)
		}
	}
	if len(e.workers) == 1 {
		e.workers[0].run(per)
	} else {
		var wg sync.WaitGroup
		for _, w := range e.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(per)
			}()
		}
		wg.Wait()
	}
	lat := e.workers[0].lat
	if len(e.workers) > 1 {
		lat = nil
		for _, w := range e.workers {
			lat = append(lat, w.lat...)
		}
	}
	if tr != nil {
		for _, w := range e.workers {
			tr.add(w.tr.spans)
			tr.virtLat = append(tr.virtLat, w.virtLat...)
			for k := range w.kindLat {
				tr.kindLat[k] = append(tr.kindLat[k], w.kindLat[k]...)
				w.kindLat[k] = nil
			}
			w.tr, w.virtLat = nil, nil
		}
	}
	return int64(per * len(e.workers)), lat
}

func (e *inproc) quiesce() error {
	for _, w := range e.workers {
		w.sess.Close()
		w.sess = nil
	}
	e.db = nil
	return nil
}

func (e *inproc) counts() (attempted, failed int64) {
	for _, w := range e.workers {
		attempted += w.attempted
		failed += w.failed
	}
	return
}

// verify reads back, on the recovered DB, one in verifyEvery of the keys
// the oracle knows present (loaded ids and each worker's live fresh keys)
// and of the keys it knows deleted.
func (e *inproc) verify(db *spash.DB) (attempted, failed int64) {
	v := newVerifier(db, e.ks)
	defer v.sess.Close()
	for id := uint64(0); id < uint64(e.sp.records); id += verifyEvery {
		v.check(id, false)
	}
	for _, w := range e.workers {
		for j := uint64(0); j < w.st.tail; j += verifyEvery {
			v.check(w.st.freshID(j), j < w.st.head)
		}
	}
	return v.attempted, v.failed
}

const verifyEvery = 8

// verifier is the durability oracle's reader.
type verifier struct {
	ks                keyspace
	sess              *spash.Session
	key, dst, scratch []byte
	attempted, failed int64
}

func newVerifier(db *spash.DB, ks keyspace) *verifier {
	return &verifier{ks: ks, sess: db.Session(), scratch: make([]byte, 64)}
}

func (v *verifier) check(id uint64, absent bool) {
	v.attempted++
	v.key = v.ks.key(v.key, id)
	val, found, err := v.sess.Get(v.key, v.dst[:0])
	v.dst = val
	if err != nil || found == absent || (found && !v.ks.wellFormed(val, id, v.scratch)) {
		v.failed++
		if v.failed <= 5 {
			fmt.Printf("FAIL after recovery: id=%d found=%v want absent=%v err=%v\n", id, found, absent, err)
		}
	}
}
