package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: runSeconds, scale: "tiny", trace: trace, outDir: t.TempDir(), faultAt: -1}
}

func mustRun(t *testing.T, cfg runConfig, name string) *runResult {
	t.Helper()
	sp, wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(cfg, sp, wl)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// streamDigest folds the first n ops of every worker's stream for a rep.
func streamDigest(sp spec, wl int, seed int64, rep, n int) uint64 {
	h := uint64(14695981039346656037)
	for w := 0; w < sp.workers; w++ {
		st := newStream(sp, w, newZipf(sp, seed))
		st.reseed(seed, wl, rep)
		for i := 0; i < n; i++ {
			o := st.next()
			absent := uint64(0)
			if o.absent {
				absent = 1
			}
			for _, x := range []uint64{uint64(o.kind), o.id, absent} {
				h = (h ^ x) * 1099511628211
			}
		}
	}
	return h
}

func TestSameSeedSameStream(t *testing.T) {
	for wl, sp := range workloads {
		sp, _ = sp.sized("tiny", runSeconds)
		a, b := streamDigest(sp, wl, 7, 1, 5000), streamDigest(sp, wl, 7, 1, 5000)
		if a != b {
			t.Errorf("%s: same seed, different op streams", sp.name)
		}
		if c := streamDigest(sp, wl, 8, 1, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", sp.name)
		}
		if c := streamDigest(sp, wl, 7, 2, 5000); c == a {
			t.Errorf("%s: reps 1 and 2 give the same op stream", sp.name)
		}
	}
}

// TestStreamMix checks the generator honours the mix and keeps the
// oracle's invariant: a delete always targets a live fresh key.
func TestStreamMix(t *testing.T) {
	sp, wl, _ := findWorkload("mix_zipf")
	sp, _ = sp.sized("tiny", runSeconds)
	st := newStream(sp, 1, newZipf(sp, 7))
	st.reseed(7, wl, 1)
	var n [numOpKinds]int
	live := map[uint64]bool{}
	const total = 200_000
	for i := 0; i < total; i++ {
		o := st.next()
		n[o.kind]++
		switch o.kind {
		case opInsert:
			if live[o.id] || o.id%2 != 1 {
				t.Fatalf("insert of id %d: already live or not this worker's", o.id)
			}
			live[o.id] = true
		case opDelete:
			if !live[o.id] {
				t.Fatalf("delete of id %d, which is not live", o.id)
			}
			delete(live, o.id)
		case opGet:
			if o.id >= 2*st.records && live[o.id] == o.absent {
				t.Fatalf("get of fresh id %d: oracle says absent=%v, live=%v", o.id, o.absent, live[o.id])
			}
		}
	}
	for k, want := range map[opKind]float64{opGet: 0.5, opUpdate: 0.3} {
		if got := float64(n[k]) / total; math.Abs(got-want) > 0.01 {
			t.Errorf("kind %d: share %.3f, want %.2f", k, got, want)
		}
	}
	if got := float64(n[opInsert]+n[opDelete]) / total; math.Abs(got-0.2) > 0.01 {
		t.Errorf("insert+delete share %.3f, want 0.20", got)
	}
}

// TestSameSeedSameCounts: on the one-worker in-process workload every
// counted metric repeats to the bit between two runs with one seed.
func TestSameSeedSameCounts(t *testing.T) {
	cfg := tinyConfig(t, true)
	a, b := mustRun(t, cfg, "get_uniform"), mustRun(t, cfg, "get_uniform")
	// Wall-clock cells (probes and what is derived from them) may differ;
	// everything the simulator counts, its virtual times included, may not.
	wall := regexp.MustCompile(`^(pmem|htm)\..*(_ns|busy_share)$|inserts_per_s$|recover_s$`)
	checked := 0
	for _, name := range []string{"virt_ns_per_op", "pm_bytes_per_op", "space_amp"} {
		if a.vals[name] != b.vals[name] {
			t.Errorf("%s: %v then %v", name, a.vals[name], b.vals[name])
		}
	}
	for _, d := range perLayer {
		layer, _, _ := strings.Cut(d.Name, ".")
		if layer != "pmem" && layer != "htm" && layer != "core" || wall.MatchString(d.Name) {
			continue
		}
		checked++
		if a.vals[d.Name] != b.vals[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.vals[d.Name], b.vals[d.Name])
		}
	}
	if checked < 20 {
		t.Errorf("only %d counted metrics compared", checked)
	}
	if a.attempted != b.attempted {
		t.Errorf("attempted %d then %d", a.attempted, b.attempted)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	s := make([]int32, 1000)
	for i := range s {
		s[i] = int32(i + 1)
	}
	for p, want := range map[float64]int32{50: 500, 99: 990, 99.9: 999, 100: 1000, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %d, want %d", p, got, want)
		}
	}
	if got := percentile([]int32{}, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{5: 0, 20: 50, 100: 90, 999: 90, 1000: 99, 10_000: 99.9, 168_750: 99.99} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &traceSink{}
	// Two tracers' spans merged: parents are rebased.
	tr.add([]span{
		{Name: spOp, Parent: -1, Start: 0, End: 100},
		{Name: spGet, Parent: 0, Start: 10, End: 70},
	})
	tr.add([]span{
		{Name: spOp, Parent: -1, Start: 200, End: 260},
		{Name: spUpdate, Parent: 0, Start: 205, End: 255},
	})
	st := totals(tr.spans)
	if st.count[spOp] != 2 || st.total[spOp] != 160 || st.self[spOp] != 160-60-50 {
		t.Errorf("op: count %d total %d self %d", st.count[spOp], st.total[spOp], st.self[spOp])
	}
	if st.self[spGet] != 60 || st.self[spUpdate] != 50 {
		t.Errorf("children self: %d %d", st.self[spGet], st.self[spUpdate])
	}
	if tr.spans[3].Parent != 2 {
		t.Errorf("rebased parent = %d, want 2", tr.spans[3].Parent)
	}
}

func TestWireIdentity(t *testing.T) {
	// One window of 4 ops: 1000 ns, of which the client waits 700.
	spans := []span{
		{Name: spWindow, Parent: -1, Start: 0, End: 1000},
		{Name: spEncode, Parent: 0, Start: 0, End: 100},
		{Name: spFlush, Parent: 0, Start: 100, End: 150},
		{Name: spWait, Parent: 0, Start: 150, End: 850},
		{Name: spParse, Parent: 0, Start: 850, End: 980},
		{Name: spRespParse, Parent: -1, Start: 2000, End: 2120},
		{Name: spExecBatch, Parent: -1, Start: 2120, End: 2420},
		{Name: spRespRender, Parent: -1, Start: 2420, End: 2500},
	}
	st := totals(spans)
	const ops = 4
	client, residual := clientNS(st, ops), wireResidual(st, ops)
	if client != 75 { // (1000-700)/4
		t.Errorf("client = %v", client)
	}
	if residual != (700-120-300-80)/4.0 {
		t.Errorf("residual = %v", residual)
	}
	sum := client + st.per(spRespParse, ops) + st.per(spExecBatch, ops) + st.per(spRespRender, ops) + residual
	if window := st.per(spWindow, ops); math.Abs(sum-window) > 1e-9 {
		t.Errorf("window %v != client + parse + execbatch + render + residual = %v", window, sum)
	}
}

// TestBenchmarkJSONMatches: the committed BENCHMARK.json is what the
// binary's tables render, and every name, unit and bound in it is within
// the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated name/unit %+v", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// TestSmokeAllWorkloads runs all four workloads, untraced and traced, at
// -scale tiny: every operation correct, every metric reported, a span
// file per workload, and the wire identity closing.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, sp := range workloads {
		plain := mustRun(t, tinyConfig(t, false), sp.name)
		if plain.failed != 0 || plain.attempted == 0 {
			t.Errorf("%s: %d of %d failed", sp.name, plain.failed, plain.attempted)
		}
		for _, d := range endToEnd {
			// At tiny scale everything fits the simulated cache: no media traffic.
			if v, ok := plain.vals[d.Name]; !ok || v < 0 || v == 0 && d.Name != "pm_bytes_per_op" || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", sp.name, d.Name, v)
			}
		}
		cfg := tinyConfig(t, true)
		traced := mustRun(t, cfg, sp.name)
		if traced.failed != 0 {
			t.Errorf("%s traced: %d of %d failed", sp.name, traced.failed, traced.attempted)
		}
		for _, d := range perLayer {
			if v := traced.vals[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", sp.name, d.Name, v)
			}
		}
		for _, name := range []string{"pmem.cache_hit_ratio", "htm.commits_per_op", "trace.overhead_ratio", "pmem.load_hit_ns", "htm.txn_segscan_ns", "alloc.alloc_free_ns", "host.calib_ns", "core.load_factor"} {
			if traced.vals[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, traced.vals[name])
			}
		}
		applies := []string{"spash.get_ns_p50", "core.virt_lat_p50_ns"}
		if sp.wire {
			applies = []string{"resp.parse_ns_per_cmd", "spash.execbatch_ns_per_op", "resp.render_ns_per_reply",
				"client.encode_ns_per_op", "client.wait_ns_per_window", "server.batch_size_mean", "resp.bytes_in_per_op", "shard.imbalance"}
		}
		for _, name := range applies {
			if traced.vals[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, traced.vals[name])
			}
		}
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace_"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []struct {
				Name   string
				Start  int64
				End    int64
				Parent int32
				Req    uint32
			}
		}
		if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
			t.Errorf("%s: span file: %v, %d spans", sp.name, err, len(file.Spans))
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("tiny smoke took %v, want < 15s", d)
	}
}

// TestOracleCatchesFlippedReply flips one byte in one reply and expects
// the run to count a failure — in process and over the wire.
func TestOracleCatchesFlippedReply(t *testing.T) {
	for _, name := range []string{"get_uniform", "mix_zipf", "wire_pipe64", "wire_rtt"} {
		cfg := tinyConfig(t, false)
		cfg.faultAt = 100
		if res := mustRun(t, cfg, name); res.failed != 1 {
			t.Errorf("%s: one flipped reply byte gave %d failures of %d, want 1", name, res.failed, res.attempted)
		}
	}
}
