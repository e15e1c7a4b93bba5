package obs

import (
	"strings"
	"sync"
	"testing"

	"spash/internal/alloc"
	"spash/internal/htm"
	"spash/internal/pmem"
)

func spanFor(kind SpanKind, key uint64, total int64) Span {
	sp := Span{Active: true, Kind: kind, Key: key, Shard: 0, Start: 10}
	// Attribute the whole duration to probe so histogram totals are
	// predictable.
	sp.Dur[PhaseProbe] = total
	return sp
}

func TestRecordSpanHistograms(t *testing.T) {
	r := NewRegistrySized(4)
	ln := r.Lane()
	for i := int64(1); i <= 100; i++ {
		sp := spanFor(SpanInsert, uint64(i), i)
		ln.RecordSpan(&sp, i)
	}
	if got := r.PhaseSnapshot(PhaseProbe).Count(); got != 100 {
		t.Fatalf("probe samples: got %d want 100", got)
	}
	if got := r.PhaseSnapshot(PhasePublish).Count(); got != 0 {
		t.Fatalf("publish samples: got %d want 0 (never attributed)", got)
	}
	if got := r.OpLatSnapshot(SpanInsert).Count(); got != 100 {
		t.Fatalf("insert op-lat samples: got %d want 100", got)
	}
	if got := r.OpLatSnapshot(SpanGet).Count(); got != 0 {
		t.Fatalf("get op-lat samples: got %d want 0", got)
	}
	// Percentiles return bucket lower bounds: p100 of totals 1..100
	// lands in bucket [64,128) -> 64.
	if p := r.OpLatSnapshot(SpanInsert).PercentileNS(100); p != 64 {
		t.Fatalf("p100 representative: got %d want 64", p)
	}
}

func TestRecordSpanInactiveNoop(t *testing.T) {
	r := NewRegistrySized(4)
	ln := r.Lane()
	sp := Span{} // Active=false
	sp.Dur[PhaseProbe] = 1000
	ln.RecordSpan(&sp, 1000)
	if got := r.PhaseSnapshot(PhaseProbe).Count(); got != 0 {
		t.Fatalf("inactive span recorded: %d samples", got)
	}
	if got := len(r.SlowOps(0)); got != 0 {
		t.Fatalf("inactive span reached slow log: %d entries", got)
	}
}

// The unsampled path must not allocate: neither the inactive
// RecordSpan call nor the nil-lane call.
func TestUnsampledSpanZeroAlloc(t *testing.T) {
	r := NewRegistrySized(4)
	ln := r.Lane()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Span{}
		ln.RecordSpan(&sp, 500)
	})
	if allocs != 0 {
		t.Fatalf("inactive RecordSpan allocates %.1f per op, want 0", allocs)
	}
	var nilLane *Lane
	allocs = testing.AllocsPerRun(1000, func() {
		sp := Span{Active: true}
		nilLane.RecordSpan(&sp, 500)
	})
	if allocs != 0 {
		t.Fatalf("nil-lane RecordSpan allocates %.1f per op, want 0", allocs)
	}
}

// Even the sampled record path is allocation-free (histogram adds and
// the slow log's atomic slots; snapshots are where allocation belongs).
func TestSampledSpanRecordZeroAlloc(t *testing.T) {
	r := NewRegistrySized(4)
	ln := r.Lane()
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		sp := spanFor(SpanGet, uint64(i), i)
		ln.RecordSpan(&sp, i)
	})
	if allocs != 0 {
		t.Fatalf("sampled RecordSpan allocates %.1f per op, want 0", allocs)
	}
}

func TestSlowLogWorstNEviction(t *testing.T) {
	r := NewRegistrySized(4)
	ln := r.Lane()
	// 200 spans with totals 1..200ns: only the worst slowLogSize may
	// survive, and everything retained must beat everything evicted.
	for i := int64(1); i <= 200; i++ {
		sp := spanFor(SpanUpdate, uint64(i), i)
		ln.RecordSpan(&sp, i)
	}
	ops := r.SlowOps(0)
	if len(ops) != slowLogSize {
		t.Fatalf("retained %d ops, want %d", len(ops), slowLogSize)
	}
	for i, op := range ops {
		want := int64(200 - i) // slowest first: 200, 199, ...
		if op.TotalNS != want {
			t.Fatalf("op[%d].TotalNS = %d, want %d (eviction kept a faster op)", i, op.TotalNS, want)
		}
		if op.Op != "update" {
			t.Fatalf("op[%d].Op = %q, want update", i, op.Op)
		}
		if op.Phases["probe"] != op.TotalNS {
			t.Fatalf("op[%d] phases = %v, want probe=%d", i, op.Phases, op.TotalNS)
		}
	}
	// The floor now equals the smallest retained total, so offering
	// anything at or below it must be rejected without a scan.
	if f := r.slow.floor.Load(); f != ops[len(ops)-1].TotalNS {
		t.Fatalf("floor = %d, want %d", f, ops[len(ops)-1].TotalNS)
	}
	sp := spanFor(SpanUpdate, 999, 3)
	ln.RecordSpan(&sp, 3)
	if got := r.SlowOps(1)[0].TotalNS; got != 200 {
		t.Fatalf("fast op displaced the slowest: head total %d", got)
	}
	// SlowOps(n) truncates.
	if got := len(r.SlowOps(5)); got != 5 {
		t.Fatalf("SlowOps(5) returned %d", got)
	}
}

func TestSlowLogSeqTieBreak(t *testing.T) {
	r := NewRegistrySized(4)
	ln := r.Lane()
	for i := 0; i < 3; i++ {
		sp := spanFor(SpanGet, uint64(i), 100)
		ln.RecordSpan(&sp, 100)
	}
	ops := r.SlowOps(0)
	if len(ops) != 3 {
		t.Fatalf("retained %d ops, want 3", len(ops))
	}
	// Equal totals: newer admission (higher seq) sorts first.
	if !(ops[0].Seq > ops[1].Seq && ops[1].Seq > ops[2].Seq) {
		t.Fatalf("tie-break by seq violated: %d, %d, %d", ops[0].Seq, ops[1].Seq, ops[2].Seq)
	}
}

func TestMergeSlowOps(t *testing.T) {
	a := []SlowOp{{Seq: 1, TotalNS: 50, Shard: 0}, {Seq: 2, TotalNS: 10, Shard: 0}}
	b := []SlowOp{{Seq: 1, TotalNS: 70, Shard: 1}, {Seq: 2, TotalNS: 30, Shard: 1}}
	got := MergeSlowOps([][]SlowOp{a, b}, 3)
	if len(got) != 3 || got[0].TotalNS != 70 || got[1].TotalNS != 50 || got[2].TotalNS != 30 {
		t.Fatalf("merge order wrong: %+v", got)
	}
	if got[0].Shard != 1 || got[1].Shard != 0 {
		t.Fatalf("merge lost shard attribution: %+v", got)
	}
}

// Concurrent span recording and slow-log reads while snapshots are
// captured and diffed; run under -race this validates the seqlock
// protocol and the lock-free histograms.
func TestSpanSnapshotDiffConcurrent(t *testing.T) {
	r := NewRegistrySized(8)
	pre := Capture(pmem.Stats{}, htm.Stats{}, alloc.Stats{}, r)

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(id int) {
			defer wg.Done()
			ln := r.Lane()
			for i := 1; i <= perWriter; i++ {
				sp := spanFor(SpanKind(id%int(numSpanKinds)), uint64(id*perWriter+i), int64(i))
				sp.Dur[PhasePublish] = 7
				ln.RecordSpan(&sp, int64(i)+7)
			}
		}(w)
	}
	// Concurrent readers: snapshots, diffs, slow-log scans.
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		last := pre
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := Capture(pmem.Stats{}, htm.Stats{}, alloc.Stats{}, r)
			d := cur.Sub(last)
			for name, h := range d.Phases {
				if h.Count() < 0 {
					panic("negative diff for phase " + name)
				}
			}
			_ = r.SlowOps(8)
			last = cur
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	post := Capture(pmem.Stats{}, htm.Stats{}, alloc.Stats{}, r)
	d := post.Sub(pre)
	if got := d.Phases[PhaseNames[PhaseProbe]].Count(); got != writers*perWriter {
		t.Fatalf("probe samples after diff: got %d want %d", got, writers*perWriter)
	}
	if got := d.Phases[PhaseNames[PhasePublish]].Count(); got != writers*perWriter {
		t.Fatalf("publish samples after diff: got %d want %d", got, writers*perWriter)
	}
	var oplat int64
	for _, k := range SpanKindNames {
		oplat += d.OpLat[k].Count()
	}
	if oplat != writers*perWriter {
		t.Fatalf("op-lat samples after diff: got %d want %d", oplat, writers*perWriter)
	}
	// The slow log retained (close to) the global worst. Offers drop on
	// slot-claim contention by design, so allow a small shortfall: every
	// retained top op must still be within the worst 2*slowLogSize
	// totals ever offered.
	ops := r.SlowOps(writers)
	if len(ops) != writers {
		t.Fatalf("slow log returned %d ops, want %d", len(ops), writers)
	}
	for _, op := range ops {
		if op.TotalNS < perWriter+7-2*slowLogSize {
			t.Fatalf("slow log head = %dns, want >= %d", op.TotalNS, perWriter+7-2*slowLogSize)
		}
	}
}

func TestEvalHealth(t *testing.T) {
	base := Snapshot{HTM: htm.Stats{Commits: 1000, Conflicts: 10}}
	if h := EvalHealth(base); h.Status != HealthOK {
		t.Fatalf("clean snapshot: %v (%v)", h.Status, h.Reasons)
	}

	quar := base
	quar.Counters = map[string]int64{CounterNames[CQuarantines]: 2}
	h := EvalHealth(quar)
	if h.Status != HealthDegraded || h.Quarantines != 2 {
		t.Fatalf("quarantine: %v %+v", h.Status, h)
	}
	quar.Counters[CounterNames[CQuarantines]] = 16
	if h = EvalHealth(quar); h.Status != HealthCritical {
		t.Fatalf("quarantine critical: %v", h.Status)
	}

	lag := base
	lag.Gauges = map[string]int64{
		GaugeNames[GReplLagRecords]: 12,
		GaugeNames[GReplLagBytes]:   4096,
	}
	h = EvalHealth(lag)
	if h.Status != HealthDegraded || h.ReplLagRecords != 12 || h.ReplLagBytes != 4096 {
		t.Fatalf("repl lag: %v %+v", h.Status, h)
	}
	if len(h.Reasons) != 1 || !strings.Contains(h.Reasons[0], "behind") {
		t.Fatalf("repl lag reasons: %v", h.Reasons)
	}
	lag.Gauges[GaugeNames[GReplLagRecords]] = 5000
	if h = EvalHealth(lag); h.Status != HealthCritical {
		t.Fatalf("repl lag critical: %v", h.Status)
	}

	hot := base
	hot.HTM = htm.Stats{Commits: 100, Conflicts: 150, Capacities: 20, Explicits: 30}
	h = EvalHealth(hot)
	if h.Status != HealthDegraded || h.AbortRate != 2.0 {
		t.Fatalf("abort rate: %v rate=%v", h.Status, h.AbortRate)
	}

	fsck := base
	fsck.Gauges = map[string]int64{GaugeNames[GFsckUnrecoverable]: 1}
	if h = EvalHealth(fsck); h.Status != HealthCritical {
		t.Fatalf("unrecoverable: %v", h.Status)
	}
}

func TestGaugeSnapshotSemantics(t *testing.T) {
	r := NewRegistrySized(4)
	r.SetGauge(GReplLagRecords, 10)
	r.AddGauge(GReplLagBytes, 320)
	a := Capture(pmem.Stats{}, htm.Stats{}, alloc.Stats{}, r)
	r.SetGauge(GReplLagRecords, 4)
	b := Capture(pmem.Stats{}, htm.Stats{}, alloc.Stats{}, r)

	// Gauges are levels: Sub keeps the newer level, not the delta.
	d := b.Sub(a)
	if got := d.Gauges[GaugeNames[GReplLagRecords]]; got != 4 {
		t.Fatalf("Sub gauge level: got %d want 4", got)
	}
	// Add sums levels (per-shard aggregation).
	s := a.Add(b)
	if got := s.Gauges[GaugeNames[GReplLagRecords]]; got != 14 {
		t.Fatalf("Add gauge level: got %d want 14", got)
	}
	if got := s.Gauges[GaugeNames[GReplLagBytes]]; got != 640 {
		t.Fatalf("Add gauge bytes: got %d want 640", got)
	}
	if got := r.GaugeValue(GReplLagRecords); got != 4 {
		t.Fatalf("GaugeValue: got %d want 4", got)
	}
}
