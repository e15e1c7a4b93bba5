package harness

import (
	"bytes"
	"strings"
	"testing"

	"spash/internal/core"
	"spash/internal/ycsb"
)

// tinyScale keeps the shape tests fast.
var tinyScale = Scale{
	MicroLoad: 10000, MicroOps: 10000,
	YCSBLoad: 10000, YCSBOps: 10000,
	Threads: []int{1, 4}, MaxThreads: 4,
	CacheBytes: 128 << 10,
}

// entry is ByName for a name the test knows is in the table.
func entry(t testing.TB, name string) Entry {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Observation 2: unflushed multi-cacheline writes to cold memory
// amplify; flushing restores bandwidth.
func TestFig1Observation2(t *testing.T) {
	f := fig1Bandwidth(tinyScale, false, writeF, 1024)
	nf := fig1Bandwidth(tinyScale, false, writeNF, 1024)
	if nf >= f {
		t.Fatalf("cold 1KB: write-nf %.2f GB/s >= write-f %.2f GB/s (no amplification)", nf, f)
	}
}

// Observation 3: under skew, removing flushes wins (hot writes are
// absorbed by the persistent cache).
func TestFig1Observation3(t *testing.T) {
	f := fig1Bandwidth(tinyScale, true, writeF, 256)
	nf := fig1Bandwidth(tinyScale, true, writeNF, 256)
	if nf <= f {
		t.Fatalf("zipf 256B: write-nf %.2f GB/s <= write-f %.2f GB/s", nf, f)
	}
}

// Observation 4: below one cacheline, write-nf is never worse.
func TestFig1Observation4(t *testing.T) {
	f := fig1Bandwidth(tinyScale, false, writeF, 16)
	nf := fig1Bandwidth(tinyScale, false, writeNF, 16)
	if nf < f {
		t.Fatalf("16B: write-nf %.2f GB/s < write-f %.2f GB/s", nf, f)
	}
}

// Fig 8 headline: Spash reads about one XPLine per search and writes
// about one XPLine per update, and its PM traffic per operation is the
// lowest of the roster.
func TestFig8SpashAccessCounts(t *testing.T) {
	phases, err := microPhases(entry(t, "Spash"), tinyScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	se := phases["search"]
	if xp := se.PerOp(se.Mem.XPLineReads); xp > 1.6 {
		t.Fatalf("Spash search reads %.2f XPLines/op, want ~1", xp)
	}
	up := phases["update"]
	if xp := up.PerOp(up.Mem.XPLineWrites); xp > 1.6 {
		t.Fatalf("Spash update writes %.2f XPLines/op, want ~1", xp)
	}
	in := phases["insert"]
	if xp := in.PerOp(in.Mem.XPLineWrites); xp > 2.0 {
		t.Fatalf("Spash insert writes %.2f XPLines/op, want ~1.1-1.5", xp)
	}

	// Dash (bucket-granular metadata) must cost more per search.
	dashPhases, err := microPhases(entry(t, "Dash"), tinyScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := dashPhases["search"]
	if ds.PerOp(ds.Mem.CachelineReads) <= se.PerOp(se.Mem.CachelineReads) {
		t.Fatalf("Dash search cacheline reads (%.2f) <= Spash (%.2f)",
			ds.PerOp(ds.Mem.CachelineReads), se.PerOp(se.Mem.CachelineReads))
	}
}

// Fig 10 headline: with many workers under skew, Spash beats the
// lock-based baselines on the balanced mix.
func TestFig10SpashWins(t *testing.T) {
	s := tinyScale
	results := map[string]float64{}
	for _, e := range []Entry{entry(t, "Spash"), entry(t, "Level"), entry(t, "CCEH")} {
		ix, err := mustOpen(e, s)
		if err != nil {
			t.Fatal(err)
		}
		LoadIndex(ix, s.MaxThreads, s.YCSBLoad, 8, false)
		r := Run("bal", ix, s.MaxThreads, s.YCSBOps/s.MaxThreads, e.Pipeline,
			MixSource(ycsb.Balanced, uint64(s.YCSBLoad), ycsb.DefaultTheta, 8, 42), nil)
		results[e.Name] = r.Throughput()
	}
	if results["Spash"] <= results["Level"] || results["Spash"] <= results["CCEH"] {
		t.Fatalf("Spash %.2f not above Level %.2f / CCEH %.2f", results["Spash"], results["Level"], results["CCEH"])
	}
}

// The figure runners the golden (golden_test.go) does not pin must
// produce output without errors at tiny scale.
func TestFigureRunnersProduceOutput(t *testing.T) {
	runners := map[string]func(*bytes.Buffer) error{
		"fig12b": func(b *bytes.Buffer) error { return Fig12b(b, tinyScale) },
		"table1": func(b *bytes.Buffer) error { return Table1(b, tinyScale) },
	}
	for name, fn := range runners {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "###") {
			t.Fatalf("%s produced no table", name)
		}
	}
}

// Fig 12(b) shape: compacted-flush must write fewer XPLines per insert
// than the no-compaction policy.
func TestFig12bShape(t *testing.T) {
	measure := func(policy core.InsertPolicy) float64 {
		ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{Insert: policy}), tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		r := LoadIndex(ix, tinyScale.MaxThreads, tinyScale.YCSBOps, 64, false)
		return r.PerOp(r.Mem.XPLineWrites)
	}
	compacted := measure(core.InsertCompactedFlush)
	naive := measure(core.InsertNoCompact)
	if compacted >= naive {
		t.Fatalf("compacted-flush %.2f XPLine-writes/op >= no-compaction %.2f", compacted, naive)
	}
}

// The virtual-time model: scaling workers must increase throughput for
// the lock-free Spash search phase (until a bandwidth bound).
func TestScalingImprovesSearchThroughput(t *testing.T) {
	s := tinyScale
	get := func(th int) float64 {
		ix, err := mustOpen(entry(t, "Spash"), s)
		if err != nil {
			t.Fatal(err)
		}
		LoadIndex(ix, th, s.MicroLoad, 8, true)
		r := Run("search", ix, th, s.MicroOps/th, true,
			uniformSource(ycsb.OpSearch, uint64(s.MicroLoad), 7), nil)
		return r.Throughput()
	}
	one := get(1)
	four := get(4)
	if four <= one {
		t.Fatalf("4 workers (%.2f Mops) not faster than 1 (%.2f Mops)", four, one)
	}
}

func TestLatencyHistogram(t *testing.T) {
	ix, err := mustOpen(entry(t, "Spash"), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	hist := &LatencyHist{}
	res := Run("insert", ix, 4, 2000, false, insertSource(0, 2000), hist)
	if res.Ops != 8000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	p50, p99, max := hist.Percentile(50), hist.Percentile(99), hist.Max()
	if !(p50 > 0 && p50 <= p99 && p99 <= max) {
		t.Fatalf("percentiles not monotone: %d %d %d", p50, p99, max)
	}
	if s := hist.String(); !strings.Contains(s, "p99") {
		t.Fatalf("summary: %s", s)
	}
}

// The Spash adapter at n = 2 must run through the multi-device measure
// path: media traffic is the sum over devices, worker time the sum of
// per-shard clocks, and every op must land and be found again.
func TestShardedAdapterWorkload(t *testing.T) {
	s := tinyScale
	ix, err := mustOpen(SpashEntry("Spash-2sh", 2, core.Config{}), s)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ix.Pools()); n != 2 {
		t.Fatalf("Pools: %d devices, want 2", n)
	}
	per := s.YCSBOps / s.MaxThreads
	r := Run("insert", ix, s.MaxThreads, per, false, insertSource(0, per), nil)
	if r.Ops != int64(s.MaxThreads*per) {
		t.Fatalf("ops = %d, want %d", r.Ops, s.MaxThreads*per)
	}
	if ix.Len() != s.MaxThreads*per {
		t.Fatalf("Len = %d, want %d", ix.Len(), s.MaxThreads*per)
	}
	if r.Mem.MediaWriteBytes() == 0 {
		t.Fatal("no media writes metered across shard devices")
	}
	sr := Run("search", ix, s.MaxThreads, per, true,
		uniformSource(ycsb.OpSearch, uint64(s.MaxThreads*per), 11), nil)
	if sr.Throughput() <= 0 {
		t.Fatalf("search throughput %.2f", sr.Throughput())
	}
}

// Its n = 1 twin: the same adapter over a one-shard DB is the
// monolithic index of Figs 7-12 — one device, one group, and a worker
// clock that is exactly the session's single context's.
func TestSingleShardAdapterIsMonolithic(t *testing.T) {
	ix, err := mustOpen(entry(t, "Spash"), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if np, ng := len(ix.Pools()), len(ix.Groups()); np != 1 || ng != 1 {
		t.Fatalf("Pools/Groups: %d/%d, want 1/1", np, ng)
	}
	w := ix.NewWorker().(spashWorker)
	defer w.Close()
	w.ResetClock()
	kb := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		if err := w.Insert(inlineKV(kb, uint64(i)), kb); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := w.Clock(), w.ShardCtx(0).Clock(); got != want || got == 0 {
		t.Fatalf("Clock() = %d, the single context's clock = %d", got, want)
	}
	if ix.Len() != 1000 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

// The shards figure must run end to end and emit every panel.
func TestFigShardsProducesOutput(t *testing.T) {
	old := shardCounts
	defer func() { shardCounts = old }()
	SetShardCounts([]int{1, 2})
	var buf bytes.Buffer
	if err := FigShards(&buf, tinyScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Shard scaling (a)", "Shard scaling (b)", "HTM aborts", "media writes", "1sh", "2sh"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestMixSourceUniformAndZipf(t *testing.T) {
	for _, theta := range []float64{0, ycsb.DefaultTheta} {
		src := MixSource(ycsb.Balanced, 1000, theta, 8, 7)
		next := src(0)
		counts := map[ycsb.OpKind]int{}
		for i := 0; i < 2000; i++ {
			op := next(i)
			counts[op.Kind]++
			if len(op.Key) != 8 {
				t.Fatalf("key len %d", len(op.Key))
			}
		}
		if counts[ycsb.OpSearch] == 0 || counts[ycsb.OpUpdate] == 0 {
			t.Fatalf("theta=%v: mix not mixed: %v", theta, counts)
		}
	}
}

// The stop-the-world doubling ablation must degrade the tail of
// concurrent operations relative to staged doubling.
func TestMonolithicDoublingHurtsTail(t *testing.T) {
	run := func(mono bool) (float64, int64) {
		ix, err := mustOpen(SpashEntry("Spash", 1,
			core.Config{InitialDepth: 2, MonolithicResize: mono}), tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		per := 40000 / tinyScale.MaxThreads
		hist := &LatencyHist{}
		res := Run("insert", ix, tinyScale.MaxThreads, per, false, insertSource(0, per), hist)
		return res.Throughput(), hist.Percentile(99.9)
	}
	_, stagedTail := run(false)
	_, monoTail := run(true)
	// The staged design must not have a worse p99.9 than stop-the-world
	// (the paper's §IV-B claim, modulo noise at tiny scale).
	if stagedTail > monoTail*4 {
		t.Fatalf("staged p99.9 %dns far above monolithic %dns", stagedTail, monoTail)
	}
}

// Plush's rows must be a function of the op stream: its DRAM buffer
// drains in insertion order, not in Go's per-run map order. ScaleSmall
// is the smallest named scale whose single-worker phases overflow a
// partition buffer (at tinyScale Plush never flushes, so the golden
// cannot see this).
func TestPlushRowsReproducible(t *testing.T) {
	run := func() map[string]Result {
		phases, err := microPhases(entry(t, "Plush"), ScaleSmall, 1)
		if err != nil {
			t.Fatal(err)
		}
		return phases
	}
	first, second := run(), run()
	for op, r := range first {
		if r.Mem.XPLineWrites == 0 && op == "insert" {
			t.Fatal("insert phase never reached PM: the buffers did not flush")
		}
		if r != second[op] {
			t.Fatalf("%s phase differs between two runs:\n%+v\n%+v", op, r, second[op])
		}
	}
}
