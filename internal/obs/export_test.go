package obs

import (
	"bufio"
	"net"
	"net/http"
	"strings"
	"testing"

	"spash/internal/alloc"
	"spash/internal/htm"
	"spash/internal/pmem"
)

// TestServeStopJoins pins Serve's lifetime contract: the returned
// stop function closes the listener and joins the serving goroutine,
// so after stop returns the port is released and no goroutine of the
// server survives. Before stop existed, every Serve leaked its
// http.Server until process exit.
func TestServeStopJoins(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The server answers while running (503 without a registered
	// source is still an answer).
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics while serving: %v", err)
	}
	resp.Body.Close()

	stop()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after stop returned")
	}
	stop() // idempotent: a second stop must not hang or panic
}

// TestServeBadAddr: a listen failure surfaces as an error, not a
// panic, and returns no stop function to misuse.
func TestServeBadAddr(t *testing.T) {
	if _, _, err := Serve("256.0.0.1:bad"); err == nil {
		t.Fatal("Serve on a bad address succeeded")
	}
}

// TestPrometheusSeriesAreUnique renders a snapshot in which every
// subsystem counter, registry counter, gauge and histogram is non-zero
// (the TM's conflict count included) and fails on any series
// (name{labels}) printed twice: a registry metric must not shadow a
// subsystem series, as a registry htm_conflicts counter once did.
func TestPrometheusSeriesAreUnique(t *testing.T) {
	r := NewRegistrySized(1, 8)
	ln := r.Lane()
	for c := Counter(0); c < numCounters; c++ {
		ln.Add(c, int64(c)+1)
	}
	for g := Gauge(0); g < numGauges; g++ {
		r.SetGauge(g, int64(g)+1)
	}
	for h := Hist(0); h < numHists; h++ {
		ln.Observe(h, 3)
	}
	s := Capture(
		pmem.Stats{XPLineReads: 1, XPLineWrites: 2, CachelineReads: 3, CachelineWrites: 4,
			Flushes: 5, Fences: 6, Evictions: 7, NTStores: 8, CacheHits: 9, CacheMisses: 10},
		htm.Stats{Commits: 11, Conflicts: 12, Capacities: 13, Explicits: 14, Irrevocable: 15},
		alloc.Stats{WatermarkBytes: 16, Arenas: 17, FreeBlocks: 18},
		r,
	)
	var b strings.Builder
	s.WritePrometheus(&b)
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		series, _, _ := strings.Cut(sc.Text(), " ")
		if seen[series] {
			t.Errorf("series %s rendered twice", series)
		}
		seen[series] = true
	}
	if !seen["spash_htm_conflicts_total"] {
		t.Fatalf("spash_htm_conflicts_total missing from:\n%s", b.String())
	}
}
