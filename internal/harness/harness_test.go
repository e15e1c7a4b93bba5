package harness

import (
	"strings"
	"testing"

	"spash/internal/core"
	"spash/internal/ycsb"
)

// tinyScale keeps the figure cells the tests read fast.
var tinyScale = Scale{
	MicroLoad: 10000, MicroOps: 10000,
	YCSBLoad: 10000, YCSBOps: 10000,
	Threads: []int{1, 4}, MaxThreads: 4,
	CacheBytes: 128 << 10,
}

// entry returns the roster row called name.
func entry(t testing.TB, name string) Entry {
	t.Helper()
	for _, e := range roster {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no roster entry %q", name)
	return Entry{}
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

func TestMixSourceZipf(t *testing.T) {
	src := MixSource(ycsb.Balanced, 1000, ycsb.DefaultTheta, 8, 7)
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
		t.Fatalf("mix not mixed: %v", counts)
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
