package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"spash"
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds int
	scale   string // "full" or "tiny"
	trace   bool
	outDir  string
	// faultAt flips a byte of the first reply at or after that op (tests
	// only; -1 off).
	faultAt int64
}

// engine is what differs between driving the library in process and
// driving the server over a socket.
type engine interface {
	// setup opens a fresh DB, loads it and brings up whatever serves it.
	setup() error
	target() target
	// rep runs one repetition of ops requests, its op stream seeded by
	// the rep number, and returns how many completed and the latency
	// samples; with a sink it also records spans.
	rep(rep, ops int, tr *traceSink) (int64, []int32)
	// counts reports the operations since setup and how many failed.
	counts() (attempted, failed int64)
	// quiesce closes every session and connection and lets go of the
	// DB, so it can crash or be collected. verify still works after it.
	quiesce() error
	// verify checks the recovered DB against the oracle's key states.
	verify(db *spash.DB) (attempted, failed int64)
}

// traceSink gathers what a traced rep (and the replay) records.
type traceSink struct {
	t0      time.Time
	spans   []span
	virtLat []int32
	kindLat [numOpKinds][]int32
}

// add appends one tracer's spans, rebasing their parent indexes.
func (t *traceSink) add(spans []span) {
	off := int32(len(t.spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// runResult is what one workload run reports.
type runResult struct {
	attempted, failed int64
	vals              map[string]float64
	notes             []string // human-readable extras (sample counts, per-rep values)
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run measures one workload. Untraced: `setups` times over, set up, run
// half a rep of warm-up and `repsPerSetup` measured reps; then one crash
// and recovery and the durability oracle. Traced: one set-up, the warm-up,
// one plain rep, one traced rep (and on wire workloads the replay), the
// layer probes, `recoveries` crash and recovery cycles (core.recover_s is
// a per-layer metric), the oracle.
func run(cfg runConfig, sp spec, wl int) (*runResult, error) {
	sp, opsRep := sp.sized(cfg.scale, cfg.seconds)
	ks := newKeyspace(sp, cfg.seed)
	var e engine
	var w *wire
	if sp.wire {
		w = &wire{cfg: cfg, sp: sp, wl: wl, ks: ks}
		e = w
	} else {
		e = &inproc{cfg: cfg, sp: sp, wl: wl, ks: ks}
	}
	res := &runResult{vals: map[string]float64{}}
	v := res.vals

	nsetup, nrep, nrecover := setups, repsPerSetup, 1
	if cfg.trace {
		nsetup, nrep, nrecover = 1, 1, recoveries
	}
	var setupS []float64
	var samples []repSample
	var tg target
	var loaded obs.Snapshot
	for s := 0; s < nsetup; s++ {
		if s > 0 {
			// Drop the previous set-up before timing the next, so two
			// pools are never resident at once.
			a, f := e.counts()
			res.attempted += a
			res.failed += f
			if err := e.quiesce(); err != nil {
				return nil, err
			}
			tg = target{}
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := e.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tg = e.target()
		loaded = tg.db.ObsSnapshot()

		first := s * (nrep + 1) // rep numbers seed the op streams
		if _, err := measureRep(tg, func() (int64, []int32) { return e.rep(first, opsRep/2, nil) }); err != nil {
			return nil, err
		}
		for r := 1; r <= nrep; r++ {
			sm, err := measureRep(tg, func() (int64, []int32) { return e.rep(first+r, opsRep, nil) })
			if err != nil {
				return nil, err
			}
			sm.lat = slices.Clone(sm.lat) // the engine reuses its buffer
			samples = append(samples, sm)
		}
	}
	v["setup_s"] = median(setupS)
	v["core.load_inserts_per_s"] = float64(sp.records) / median(setupS)
	res.notef("setup_s per set-up: %.4f", setupS)
	endToEndMetrics(res, sp, samples)

	var sink *traceSink
	if cfg.trace {
		sink = &traceSink{t0: time.Now()}
		plain := samples[0]
		traced, err := measureRep(tg, func() (int64, []int32) { return e.rep(nrep+1, opsRep, sink) })
		if err != nil {
			return nil, err
		}
		samples = append(samples, traced)
		v["trace.overhead_ratio"] = ratio(plain.throughput(), traced.throughput())
		if w != nil {
			if err := wireLayerMetrics(res, w, nrep+1, opsRep, traced, sink); err != nil {
				return nil, err
			}
		} else {
			inprocLayerMetrics(res, sink)
		}
		iters := uint64(probeIters)
		if cfg.scale == "tiny" {
			iters /= 20
		}
		if err := probes(v, iters); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	total := sumSamples(samples)
	countedMetrics(res, sp, total, loaded, tg.db)
	if cfg.trace {
		v["host.calib_ns"] = median(perRep(samples, func(s *repSample) float64 { return float64(s.calibNS) }))
		busyShares(v, sp, total)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = rss

	a, f := e.counts()
	db := tg.db
	if err := e.quiesce(); err != nil {
		return nil, err
	}
	var recoverS []float64
	for i := 0; i < nrecover; i++ {
		imgs := db.Platforms()
		db.Crash()
		t0 := time.Now()
		if db, err = spash.RecoverAll(imgs, spash.Options{}); err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		recoverS = append(recoverS, time.Since(t0).Seconds())
	}
	v["core.recover_s"] = slices.Min(recoverS)
	res.notef("recover_s per cycle: %.4f", recoverS)

	va, vf := e.verify(db)
	res.attempted += a + va
	res.failed += f + vf
	res.notef("durability oracle: %d keys read back after the last recovery, %d wrong", va, vf)

	if sink != nil {
		path := filepath.Join(cfg.outDir, "trace_"+sp.name+".json")
		if err := writeSpans(path, sink.spans); err != nil {
			return nil, err
		}
		res.notef("spans: %d recorded, written to %s", len(sink.spans), path)
	}
	return res, nil
}

// endToEndMetrics fills the wall-clock metrics. Each is the best of the
// per-rep values (percentiles are taken per rep first): what disturbs a
// rep on a shared box — a stolen vCPU, a neighbour in the last-level
// cache — only ever slows it, so the fastest of nine reps is the estimate
// of the program's own speed that repeats; the median moved 24 % between
// runs of the two-worker workload where the best moved 8 %.
func endToEndMetrics(res *runResult, sp spec, samples []repSample) {
	v := res.vals
	latUS := func(p float64) []float64 {
		return perRep(samples, func(s *repSample) float64 { return float64(percentile(s.lat, p)) / 1e3 })
	}
	v["throughput_ops_s"] = slices.Max(perRep(samples, (*repSample).throughput))
	v["lat_p50_us"] = slices.Min(latUS(50))
	v["client.lat_p99_us"] = slices.Min(latUS(99))
	v["cpu_us_per_op"] = slices.Min(perRep(samples, func(s *repSample) float64 { return float64(s.cpuNS) / 1e3 / float64(s.ops) }))
	n := len(samples[0].lat)
	hi := highestPercentile(n)
	res.notef("latency samples per rep: %d (unit: %s); highest percentile with >=10 samples beyond it: p%g = %.3f us",
		n, latencyUnit(sp), hi, slices.Min(latUS(hi)))
	for i := range samples {
		s := &samples[i]
		res.notef("rep %d: %.0f ops/s  p50 %.3f us  p99 %.3f us  cpu %.3f us/op  calib %.2f ms  gc %d",
			i+1, s.throughput(), float64(percentile(s.lat, 50))/1e3, float64(percentile(s.lat, 99))/1e3,
			float64(s.cpuNS)/1e3/float64(s.ops), float64(s.calibNS)/1e6, s.gcs)
	}
}

func latencyUnit(sp spec) string {
	switch {
	case !sp.wire:
		return fmt.Sprintf("one Session call, every %dth timed", latencyEvery)
	case sp.window > 1:
		return fmt.Sprintf("one window of %d commands", sp.window)
	}
	return "one command round trip"
}

// countedMetrics fills what the simulator and the runtime count rather
// than time, from the sum over the measured reps.
func countedMetrics(res *runResult, sp spec, t repSample, loaded obs.Snapshot, db *spash.DB) {
	v := res.vals
	ops := float64(t.ops)
	mem := t.snap.Mem
	v["virt_ns_per_op"] = float64(t.virtNS) / ops
	v["pmem.read_bytes_per_op"] = float64(mem.MediaReadBytes()) / ops
	v["pmem.write_bytes_per_op"] = float64(mem.MediaWriteBytes()) / ops
	v["pm_bytes_per_op"] = float64(mem.MediaReadBytes()+mem.MediaWriteBytes()) / ops
	v["host.allocs_per_op"] = float64(t.mallocs) / ops
	v["host.gc_cycles"] = float64(t.gcs)
	v["host.gc_pause_ms"] = float64(t.gcPause) / 1e6

	now := db.ObsSnapshot()
	live := float64(db.Len())
	v["space_amp"] = float64(now.Alloc.WatermarkBytes) / (live * float64(sp.keyLen()+sp.valLen()))
	v["alloc.bytes_per_record"] = float64(now.Alloc.WatermarkBytes) / live
	v["alloc.free_blocks"] = float64(now.Alloc.FreeBlocks)
	v["core.load_factor"] = db.LoadFactor()

	v["pmem.cache_hit_ratio"] = ratio(float64(mem.CacheHits), float64(mem.CacheHits+mem.CacheMisses))
	v["pmem.cache_misses_per_op"] = float64(mem.CacheMisses) / ops
	v["pmem.xpline_reads_per_op"] = float64(mem.XPLineReads) / ops
	v["pmem.xpline_writes_per_op"] = float64(mem.XPLineWrites) / ops
	v["pmem.flushes_per_op"] = float64(mem.Flushes) / ops
	v["pmem.fences_per_op"] = float64(mem.Fences) / ops
	v["pmem.evictions_per_op"] = float64(mem.Evictions) / ops
	writes := float64(t.snap.Counters["serve_cmd_set"]) // wire SETs
	if !sp.wire {
		writes = ops * float64(sp.mix.update+sp.mix.insert) / 100
	}
	v["pmem.write_amp"] = ratio(float64(mem.MediaWriteBytes()), writes*float64(sp.keyLen()+sp.valLen()))

	h := t.snap.HTM
	v["htm.commits_per_op"] = float64(h.Commits) / ops
	v["htm.aborts_per_commit"] = ratio(float64(h.Conflicts+h.Capacities+h.Explicits), float64(h.Commits))
	v["htm.conflicts_per_kop"] = float64(h.Conflicts) / ops * 1e3
	v["htm.capacity_per_kop"] = float64(h.Capacities) / ops * 1e3
	c := t.snap.Counters
	v["htm.fallbacks_per_kop"] = float64(c["lock_fallbacks"]) / ops * 1e3
	v["core.splits_per_kop"] = float64(c["splits"]) / ops * 1e3
	// Doublings and collaborative stages happen while loading; report
	// the whole run's.
	v["core.doubles"] = float64(now.Counters["doubles"])
	v["core.collab_stages"] = float64(now.Counters["collab_stages"])
	v["core.hot_hit_ratio"] = ratio(float64(t.hotHits), float64(c["update_inplace"]+c["update_append"]))
	if pl, ok := t.snap.Hists["probe_len"]; ok {
		v["core.probe_len_p50"] = float64(pl.Percentile(50))
		v["core.probe_len_p99"] = float64(pl.Percentile(99))
	}
	for _, ph := range []string{"route", "probe", "htm_retry", "media_flush", "publish"} {
		if d, ok := t.snap.Phases[ph]; ok && d.Count() > 0 {
			v["core.phase_"+ph+"_ns"] = float64(d.PercentileNS(50))
		}
	}
	v["server.errors"] = float64(c["serve_errors"])
	v["server.batches_per_kop"] = float64(c["serve_batches"]) / ops * 1e3
	v["server.batch_size_mean"] = ratio(float64(c["serve_cmds"]), float64(c["serve_batches"]))
	res.notef("allocs_per_op %.4f  gc cycles %d", v["host.allocs_per_op"], t.gcs)
	res.notef("load phase: %d splits, %d doublings, watermark %.1f MB vs %.0f MB simulated cache per shard",
		loaded.Counters["splits"], loaded.Counters["doubles"],
		float64(loaded.Alloc.WatermarkBytes)/(1<<20), float64(pmem.DefaultConfig().CacheSize)/(1<<20))
}

// busyShares estimates, from event counts times probed event costs, the
// share of a worker's wall time spent inside the cache simulator and
// inside HTM transactions (begin, commit and the transactional loads,
// which include the simulator calls made under them).
func busyShares(v map[string]float64, sp spec, t repSample) {
	ops := float64(t.ops)
	wallPerOp := float64(t.wallNS) / ops * float64(sp.workers)
	mem := t.snap.Mem
	pm := float64(mem.CacheHits)*v["pmem.load_hit_ns"] + float64(mem.CacheMisses)*v["pmem.load_miss_ns"] +
		float64(mem.Flushes)*v["pmem.flush_fence_ns"]
	v["pmem.est_busy_share"] = pm / ops / wallPerOp
	commits := float64(t.snap.HTM.Commits)
	perWord := (v["htm.txn_segscan_ns"] - v["htm.txn_1line_ns"]) / (core.SegmentSize/8 - 1)
	htm := commits*v["htm.txn_1line_ns"] + max(float64(mem.CacheHits+mem.CacheMisses)-commits, 0)*perWord
	v["htm.est_busy_share"] = htm / ops / wallPerOp
}

// inprocLayerMetrics turns the traced rep's spans into the spash.* and
// core.virt_lat_* metrics.
func inprocLayerMetrics(res *runResult, sink *traceSink) {
	v := res.vals
	for k, name := range map[opKind]string{opGet: "get", opUpdate: "update", opInsert: "insert", opDelete: "delete"} {
		lat := sink.kindLat[k]
		slices.Sort(lat)
		v["spash."+name+"_ns_p50"] = float64(percentile(lat, 50))
	}
	slices.Sort(sink.virtLat)
	v["core.virt_lat_p50_ns"] = float64(percentile(sink.virtLat, 50))
	v["core.virt_lat_p99_ns"] = float64(percentile(sink.virtLat, 99))
	v["shard.imbalance"] = 1
	st := totals(sink.spans)
	res.notef("traced rep: op self time (generate + oracle) %.1f ns/op of %.1f ns/op",
		st.perSelf(spOp), st.per(spOp, st.count[spOp]))
}

// wireLayerMetrics replays the traced rep and splits a window's wall time
// into client, resp.parse, spash.execbatch, resp.render and the residual
// (sockets, scheduling, the connection loop).
func wireLayerMetrics(res *runResult, w *wire, rep, opsRep int, traced repSample, sink *traceSink) error {
	v := res.vals
	ops := traced.ops
	batch := int(ratio(float64(traced.snap.Counters["serve_cmds"]), float64(traced.snap.Counters["serve_batches"])) + 0.5)
	batch = max(batch, 1)
	allocs, err := w.replay(rep, opsRep, batch, sink)
	if err != nil {
		return err
	}
	st := totals(sink.spans)
	windows := st.count[spWindow]
	v["client.encode_ns_per_op"] = st.per(spEncode, ops)
	v["client.flush_ns_per_window"] = st.per(spFlush, windows)
	v["client.wait_ns_per_window"] = st.per(spWait, windows)
	v["client.parse_ns_per_op"] = st.per(spParse, ops)
	v["resp.parse_ns_per_cmd"] = st.per(spRespParse, ops)
	v["spash.execbatch_ns_per_op"] = st.per(spExecBatch, ops)
	v["resp.render_ns_per_reply"] = st.per(spRespRender, ops)
	v["resp.parse_allocs_per_cmd"] = allocs
	v["server.residual_ns_per_op"] = wireResidual(st, ops)
	v["resp.bytes_in_per_op"] = ratio(float64(w.conn.out), float64(w.attempted))
	v["resp.bytes_out_per_op"] = ratio(float64(w.conn.in), float64(w.attempted))
	var most, sum int64
	for _, n := range w.shardOps {
		most = max(most, n)
		sum += n
	}
	v["shard.imbalance"] = ratio(float64(most)*float64(len(w.shardOps)), float64(sum))
	res.notef("replay: batches of %d; window %.0f ns/op = client %.0f + resp.parse %.0f + spash.execbatch %.0f + resp.render %.0f + residual %.0f",
		batch, st.per(spWindow, ops), clientNS(st, ops), v["resp.parse_ns_per_cmd"],
		v["spash.execbatch_ns_per_op"], v["resp.render_ns_per_reply"], v["server.residual_ns_per_op"])
	return nil
}

// clientNS is the client's own time per op: the window's time outside
// client.wait (encode, flush, parse and the window's self time).
func clientNS(st spanTotals, ops int64) float64 {
	return ratio(float64(st.total[spWindow]-st.total[spWait]), float64(ops))
}

// wireResidual is what is left of a window after the client's own time
// and the three replayed layers: window = client + parse + execbatch +
// render + residual.
func wireResidual(st spanTotals, ops int64) float64 {
	return st.per(spWindow, ops) - clientNS(st, ops) -
		st.per(spRespParse, ops) - st.per(spExecBatch, ops) - st.per(spRespRender, ops)
}
