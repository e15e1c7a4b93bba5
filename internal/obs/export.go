package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"
)

// Source produces the current cumulative snapshot of a live index.
type Source func() Snapshot

// Sources bundles the export feeds of a live DB (spash.DB.ExportSources
// fills every one). All feeds are required.
type Sources struct {
	// Snapshot produces the cumulative aggregate snapshot.
	Snapshot Source
	// Shards produces per-shard snapshots (index order).
	Shards func() []Snapshot
	// SlowOps returns the worst-n retained operations, slowest first.
	SlowOps func(n int) []SlowOp
}

// defaultSources is the process-wide export target: the most recently
// registered live DB.
var defaultSources atomic.Pointer[Sources]

// SetSources registers the export bundle (see Sources) as the
// process-wide target of NewMux's endpoints. A nil Snapshot feed, as in
// SetSources(Sources{}), clears the target.
func SetSources(s Sources) {
	if s.Snapshot == nil {
		defaultSources.Store(nil)
		return
	}
	defaultSources.Store(&s)
}

func currentSources() *Sources {
	return defaultSources.Load()
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format under the spash_ namespace.
func (s Snapshot) WritePrometheus(w io.Writer) {
	g := func(name string, v interface{}) {
		fmt.Fprintf(w, "spash_%s %v\n", name, v)
	}
	g("pm_media_read_bytes_total", s.Mem.MediaReadBytes())
	g("pm_media_write_bytes_total", s.Mem.MediaWriteBytes())
	g("pm_xpline_reads_total", s.Mem.XPLineReads)
	g("pm_xpline_writes_total", s.Mem.XPLineWrites)
	g("pm_cacheline_reads_total", s.Mem.CachelineReads)
	g("pm_cacheline_writes_total", s.Mem.CachelineWrites)
	g("pm_flushes_total", s.Mem.Flushes)
	g("pm_fences_total", s.Mem.Fences)
	g("pm_evictions_total", s.Mem.Evictions)
	g("pm_ntstores_total", s.Mem.NTStores)
	g("pm_cache_hits_total", s.Mem.CacheHits)
	g("pm_cache_misses_total", s.Mem.CacheMisses)
	g("htm_commits_total", s.HTM.Commits)
	g("htm_conflicts_total", s.HTM.Conflicts)
	g("htm_capacity_aborts_total", s.HTM.Capacities)
	g("htm_explicit_aborts_total", s.HTM.Explicits)
	g("htm_irrevocable_total", s.HTM.Irrevocable)
	g("alloc_watermark_bytes", s.Alloc.WatermarkBytes)
	g("alloc_arenas", s.Alloc.Arenas)
	g("alloc_free_blocks", s.Alloc.FreeBlocks)
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		g(k+"_total", s.Counters[k])
	}
	hnames := make([]string, 0, len(s.Hists))
	for k := range s.Hists {
		hnames = append(hnames, k)
	}
	sort.Strings(hnames)
	for _, k := range hnames {
		h := s.Hists[k]
		if h.Count() == 0 {
			continue
		}
		for _, q := range []struct {
			label string
			p     float64
		}{{"0.5", 50}, {"0.99", 99}, {"1", 100}} {
			fmt.Fprintf(w, "spash_%s{quantile=%q} %d\n", k, q.label, h.Percentile(q.p))
		}
		fmt.Fprintf(w, "spash_%s_count %d\n", k, h.Count())
	}
	gnames := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		gnames = append(gnames, k)
	}
	sort.Strings(gnames)
	for _, k := range gnames {
		g(k, s.Gauges[k])
	}
	writeDurMap(w, "phase_latency_ns", "phase", s.Phases)
	writeDurMap(w, "op_latency_ns", "op", s.OpLat)
}

// writeDurMap renders a duration-histogram map as Prometheus summary
// lines: spash_<metric>{<label>="<key>",quantile="..."} plus a _count.
func writeDurMap(w io.Writer, metric, label string, m map[string]DurSnapshot) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := m[k]
		if d.Count() == 0 {
			continue
		}
		for _, q := range []struct {
			lbl string
			p   float64
		}{{"0.5", 50}, {"0.99", 99}, {"1", 100}} {
			fmt.Fprintf(w, "spash_%s{%s=%q,quantile=%q} %d\n",
				metric, label, k, q.lbl, d.PercentileNS(q.p))
		}
		fmt.Fprintf(w, "spash_%s_count{%s=%q} %d\n", metric, label, k, d.Count())
	}
}

// Handler serves the current default snapshot as Prometheus text.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := currentSources()
		if s == nil {
			http.Error(w, "no observable index registered", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.Snapshot().WritePrometheus(w)
	})
}

// jsonHandler serves fn's result as JSON, 503 when no source is
// registered.
func jsonHandler(fn func(s *Sources, req *http.Request) any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := currentSources()
		if s == nil {
			http.Error(w, "no observable index registered", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fn(s, req))
	})
}

// snapshotHandler serves the finalized cumulative snapshot as JSON.
func snapshotHandler() http.Handler {
	return jsonHandler(func(s *Sources, _ *http.Request) any {
		snap := s.Snapshot()
		snap.Finalize()
		return snap
	})
}

// shardsHandler serves per-shard finalized snapshots as a JSON array.
func shardsHandler() http.Handler {
	return jsonHandler(func(s *Sources, _ *http.Request) any {
		snaps := s.Shards()
		for i := range snaps {
			snaps[i].Finalize()
		}
		return snaps
	})
}

// slowlogHandler serves the worst-n retained ops (?n=, default 32).
func slowlogHandler() http.Handler {
	return jsonHandler(func(s *Sources, req *http.Request) any {
		n := 32
		if q := req.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		ops := s.SlowOps(n)
		if ops == nil {
			ops = []SlowOp{}
		}
		return ops
	})
}

// healthHandler serves the health verdict of the current snapshot.
func healthHandler() http.Handler {
	return jsonHandler(func(s *Sources, _ *http.Request) any {
		return EvalHealth(s.Snapshot())
	})
}

// NewMux returns the observability mux: /metrics (Prometheus text of
// the default snapshot), the /debug/spash/* JSON feeds (snapshot,
// shards, slowlog, health) and /debug/pprof/*.
func NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler())
	mux.Handle("/debug/spash/snapshot", snapshotHandler())
	mux.Handle("/debug/spash/shards", shardsHandler())
	mux.Handle("/debug/spash/slowlog", slowlogHandler())
	mux.Handle("/debug/spash/health", healthHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the observability HTTP server on addr (e.g.
// "127.0.0.1:9100"; ":0" picks a free port), returning the bound
// address and a stop function. stop closes the listener and joins the
// serving goroutine, so after it returns no goroutine of this server
// is running — callers own the lifetime instead of leaking the server
// until process exit.
func Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewMux()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	stop := func() {
		_ = srv.Close()
		<-served
	}
	return ln.Addr().String(), stop, nil
}
