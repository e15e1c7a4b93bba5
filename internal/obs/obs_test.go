package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spash/internal/alloc"
	"spash/internal/htm"
	"spash/internal/pmem"
)

func testSnapshot(scale int64) Snapshot {
	r := NewRegistrySized(4)
	ln := r.Lane()
	ln.Add(CSplits, 3*scale)
	ln.Add(CLockFallbacks, 7*scale)
	r.Add(CDoubles, scale)
	for i := int64(0); i < 5*scale; i++ {
		ln.Observe(HProbeLen, int(i%9))
	}
	s := Capture(
		pmem.Stats{XPLineReads: uint64(100 * scale), XPLineWrites: uint64(40 * scale), Flushes: uint64(10 * scale)},
		htm.Stats{Commits: 50 * scale, Conflicts: 5 * scale},
		alloc.Stats{WatermarkBytes: uint64(1 << 20), Arenas: 2, FreeBlocks: 8 * scale},
		r,
	)
	s.Ops = 20 * scale
	return s
}

func TestSnapshotSubAddRoundTrip(t *testing.T) {
	a := testSnapshot(1)
	b := testSnapshot(3)
	// (b - a) + a must restore b exactly, counter- and bucket-wise.
	d := b.Sub(a)
	d.Ops = b.Ops - a.Ops // Sub clears Ops; the caller sets the phase's count
	got := d.Add(a)
	if !reflect.DeepEqual(got.Mem, b.Mem) || !reflect.DeepEqual(got.HTM, b.HTM) ||
		!reflect.DeepEqual(got.Alloc, b.Alloc) || !reflect.DeepEqual(got.Counters, b.Counters) {
		t.Fatalf("Sub/Add round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
	for k := range b.Hists {
		if !reflect.DeepEqual(got.Hists[k].Counts, b.Hists[k].Counts) {
			t.Fatalf("hist %s round trip mismatch: got %v want %v", k, got.Hists[k].Counts, b.Hists[k].Counts)
		}
	}
	if got.Ops != b.Ops {
		t.Fatalf("ops: got %d want %d", got.Ops, b.Ops)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := testSnapshot(2)
	s.Finalize()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Counters, s.Counters) || back.Ops != s.Ops ||
		back.Mem != s.Mem || back.HTM != s.HTM {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
	if back.Derived == nil || back.Derived.MediaReadBytesPerOp != s.Derived.MediaReadBytesPerOp {
		t.Fatalf("derived rates lost in JSON round trip: %+v", back.Derived)
	}
}

func TestDerivedRates(t *testing.T) {
	s := testSnapshot(1) // 100 XPLine reads, 40 writes, 10 flushes, 20 ops
	s.Finalize()
	if want := float64(100*pmem.XPLineSize) / 20; s.Derived.MediaReadBytesPerOp != want {
		t.Fatalf("MediaReadBytesPerOp = %v, want %v", s.Derived.MediaReadBytesPerOp, want)
	}
	if want := 0.5; s.Derived.FlushesPerOp != want {
		t.Fatalf("FlushesPerOp = %v, want %v", s.Derived.FlushesPerOp, want)
	}
	if want := 0.1; s.Derived.AbortsPerCommit != want {
		t.Fatalf("AbortsPerCommit = %v, want %v", s.Derived.AbortsPerCommit, want)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	r := NewRegistrySized(1)
	ln := r.Lane()
	ln.Observe(HProbeLen, -5)            // clamps to 0
	ln.Observe(HProbeLen, 0)             // exact 0
	ln.Observe(HProbeLen, histBuckets-1) // last bucket
	ln.Observe(HProbeLen, histBuckets)   // clamps to last
	ln.Observe(HProbeLen, 1<<30)         // clamps to last
	h := r.HistSnapshot(HProbeLen)
	if h.Counts[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (clamped negative + exact zero)", h.Counts[0])
	}
	if h.Counts[histBuckets-1] != 3 {
		t.Fatalf("last bucket = %d, want 3 (exact max + two clamped)", h.Counts[histBuckets-1])
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
}

func TestHistPercentiles(t *testing.T) {
	var h HistSnapshot
	h.Counts = make([]int64, histBuckets)
	// 100 samples of value 1, 1 sample of value 40.
	h.Counts[1] = 100
	h.Counts[40] = 1
	if p := h.Percentile(50); p != 1 {
		t.Fatalf("p50 = %d, want 1", p)
	}
	if p := h.Percentile(100); p != 40 {
		t.Fatalf("p100 = %d, want 40", p)
	}
	if p := h.Percentile(99); p != 1 {
		t.Fatalf("p99 = %d, want 1", p)
	}
	if p := (HistSnapshot{}).Percentile(50); p != 0 {
		t.Fatalf("empty p50 = %d, want 0", p)
	}
	if m := h.Mean(); m < 1.3 || m > 1.5 {
		t.Fatalf("mean = %v, want ~1.39", m)
	}
}

// TestNilRegistrySafe exercises every mutation and read path on the
// disabled (nil) registry and lane.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	ln := r.Lane()
	if ln != nil {
		t.Fatal("nil registry returned a live lane")
	}
	ln.Inc(CSplits)
	ln.Add(CMerges, 5)
	ln.Observe(HProbeLen, 3)
	r.Inc(CSplits)
	r.Add(CMerges, 2)
	if n := len(r.Counters()); n != 0 {
		t.Fatalf("nil registry has %d counters", n)
	}
	if c := r.HistSnapshot(HProbeLen).Count(); c != 0 {
		t.Fatalf("nil registry hist count %d", c)
	}
}

// TestStripedCountersRace hammers lanes and registry-striped counters
// from many goroutines while concurrently summing; run under -race in
// CI.
func TestStripedCountersRace(t *testing.T) {
	r := NewRegistrySized(8)
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := r.Lane()
			for i := 0; i < perWorker; i++ {
				ln.Inc(CSplits)
				ln.Observe(HProbeLen, i%10)
				r.Add(CMerges, 1)
			}
		}()
	}
	// Concurrent readers.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Counters()
				r.HistSnapshot(HProbeLen)
			}
		}
	}()
	wg.Wait()
	close(done)

	c := r.Counters()
	if c["splits"] != workers*perWorker {
		t.Fatalf("splits = %d, want %d", c["splits"], workers*perWorker)
	}
	if c["merges"] != workers*perWorker {
		t.Fatalf("merges = %d, want %d", c["merges"], workers*perWorker)
	}
	if n := r.HistSnapshot(HProbeLen).Count(); n != workers*perWorker {
		t.Fatalf("probe observations = %d, want %d", n, workers*perWorker)
	}
}

func TestPrometheusAndMux(t *testing.T) {
	s := testSnapshot(1)
	s.Counters[CounterNames[CQuarantines]] = 1
	s.Finalize()
	SetSources(Sources{
		Snapshot: func() Snapshot { return s },
		Shards:   func() []Snapshot { return []Snapshot{s} },
		SlowOps:  func(int) []SlowOp { return nil },
	})
	defer SetSources(Sources{})

	mux := NewMux()
	for _, path := range []string{"/metrics", "/debug/pprof/",
		"/debug/spash/snapshot", "/debug/spash/shards", "/debug/spash/slowlog", "/debug/spash/health"} {
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, req)
		if rw.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rw.Code)
		}
	}
	// Each signal has one export: the trace ring and the expvar mirror
	// of the snapshot are gone.
	for _, path := range []string{"/debug/obs/trace", "/debug/vars"} {
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if rw.Code != 404 {
			t.Fatalf("GET %s: status %d, want 404", path, rw.Code)
		}
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, req)
	body := rw.Body.String()
	for _, want := range []string{
		"spash_pm_media_read_bytes_total",
		"spash_htm_commits_total 50",
		"spash_splits_total 3",
		`spash_probe_len{quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// The health feed is EvalHealth of the registered snapshot: one
	// quarantine reads DEGRADED.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/spash/health", nil))
	var got Health
	if err := json.Unmarshal(rw.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if want := EvalHealth(s); got.Status != HealthDegraded || !reflect.DeepEqual(got, want) {
		t.Fatalf("/debug/spash/health = %+v, want %+v (DEGRADED)", got, want)
	}

	// Clearing the target turns the endpoints into 503s.
	SetSources(Sources{})
	for _, path := range []string{"/metrics", "/debug/spash/health"} {
		rw = httptest.NewRecorder()
		mux.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if rw.Code != 503 {
			t.Fatalf("cleared %s: status %d, want 503", path, rw.Code)
		}
	}
}
