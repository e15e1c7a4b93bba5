// Command spash-ycsb is a standalone YCSB-style workload driver: pick
// an index, a distribution, a mixture and a value size, and get a
// load/run report with throughput (virtual time), PM media traffic and
// the binding bottleneck.
//
// Examples:
//
//	spash-ycsb -index spash -workload balanced -records 200000 -ops 200000
//	spash-ycsb -index level -workload write-intensive -dist zipfian -threads 56
//	spash-ycsb -index all -valuesize 256
//	spash-ycsb -index spash -shards 4 -threads 224
//	spash-ycsb -index spash -json BENCH_ycsb_a.json -metrics-addr 127.0.0.1:8080
//
// With -json the run phase executes sequentially (per worker) so
// per-operation latencies can be sampled, and the results, latency
// percentiles and the unified observability snapshot (media traffic,
// HTM counters, splits/merges/doublings, probe-length percentiles) are
// written to the given path as one JSON document. With -metrics-addr
// the process serves /metrics (Prometheus text), /debug/vars (expvar),
// /debug/obs/trace (structural events) and /debug/pprof during the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"spash"
	"spash/internal/harness"
	"spash/internal/ixapi"
	"spash/internal/obs"
	"spash/internal/ycsb"
)

func main() {
	var (
		index       = flag.String("index", "spash", "index to drive (spash, cceh, dash, level, clevel, plush, halo, all)")
		workload    = flag.String("workload", "balanced", "run mixture (read-intensive, balanced, write-intensive, search-only, update-only)")
		dist        = flag.String("dist", "zipfian", "request distribution (zipfian, uniform)")
		records     = flag.Int("records", 200000, "records loaded")
		ops         = flag.Int("ops", 200000, "run-phase operations")
		threads     = flag.Int("threads", 56, "worker count")
		valSize     = flag.Int("valuesize", 8, "value size in bytes (8 = inline)")
		theta       = flag.Float64("theta", ycsb.DefaultTheta, "zipfian skew")
		jsonPath    = flag.String("json", "", "write a machine-readable artifact (results + latency + obs snapshot) to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/obs/trace and /debug/pprof on this address (off when empty)")
		shards      = flag.Int("shards", 1, "partition Spash into N shards (independent devices + HTM domains; Spash only)")
	)
	flag.Parse()

	var mix ycsb.Mix
	switch *workload {
	case "read-intensive":
		mix = ycsb.ReadIntensive
	case "balanced":
		mix = ycsb.Balanced
	case "write-intensive":
		mix = ycsb.WriteIntensive
	case "search-only":
		mix = ycsb.SearchOnly
	case "update-only":
		mix = ycsb.UpdateOnly
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	th := *theta
	if *dist == "uniform" {
		th = 0 // signalled below
	}

	scale := harness.Scale{
		YCSBLoad: *records, YCSBOps: *ops,
		MicroLoad: *records, MicroOps: *ops,
		MaxThreads: *threads,
		CacheBytes: 1 << 20,
	}

	entries := append([]harness.Entry{}, harness.MacroRoster()...)
	if *index != "all" {
		e, err := harness.ByName(*index)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		entries = []harness.Entry{e}
	}
	if *shards > 1 {
		// Only Spash has a sharded build; other roster entries keep
		// their monolithic form for comparison.
		replaced := false
		for i, e := range entries {
			if e.Name == "Spash" {
				entries[i] = harness.SpashEntry(fmt.Sprintf("Spash-%dsh", *shards), *shards, spash.IndexOptions{})
				replaced = true
			}
		}
		if !replaced {
			fmt.Fprintf(os.Stderr, "-shards applies to the Spash entry only (selected %q)\n", *index)
			os.Exit(2)
		}
	}

	var rec *harness.Recorder
	if *jsonPath != "" {
		rec = harness.NewRecorder("ycsb_"+strings.ReplaceAll(*workload, "-", "_"), map[string]string{
			"index": *index, "workload": *workload, "dist": *dist,
			"records": strconv.Itoa(*records), "ops": strconv.Itoa(*ops),
			"threads": strconv.Itoa(*threads), "valuesize": strconv.Itoa(*valSize),
			"theta": fmt.Sprintf("%g", th), "shards": strconv.Itoa(*shards),
		})
		harness.SetRecorder(rec)
		defer harness.SetRecorder(nil)
	}
	if *metricsAddr != "" {
		// The metrics server intentionally lives until process exit.
		addr, _, err := obs.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics (also /debug/vars, /debug/obs/trace, /debug/pprof)\n", addr)
	}

	fmt.Printf("spash-ycsb: %d records, %d ops, %s %s, %dB values, %d workers\n\n",
		*records, *ops, *dist, mix.Name(), *valSize, *threads)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "index\tload Mops/s\trun Mops/s\tbound\tXP-reads/op\tXP-writes/op")
	fmt.Fprintln(tw, "-----\t-----------\t----------\t-----\t-----------\t------------")
	exported := false
	for _, e := range entries {
		ix, err := e.Open(scale.Platform())
		if err != nil {
			fmt.Fprintln(os.Stderr, spash.DescribeError(err))
			os.Exit(1)
		}
		src, hasObs := harness.Observe(ix)
		if hasObs && !exported {
			// First observed index feeds the HTTP export surface:
			// /metrics plus the /debug/spash snapshot, per-shard,
			// slowlog and health JSON feeds. /metrics and /debug/vars
			// serve the snapshot feed as is, so derive its rates here.
			feeds := src
			feeds.Snapshot = func() obs.Snapshot {
				s := src.Snapshot()
				s.Finalize()
				return s
			}
			obs.SetSources(feeds)
			exported = true
		}
		load := harness.LoadIndex(ix, *threads, *records, *valSize, false)
		var pre obs.Snapshot
		if hasObs {
			pre = src.Snapshot()
		}
		run := runMix(ix, e, scale, mix, th, *valSize, rec != nil)
		if rec != nil && hasObs {
			// The artifact carries the run phase's obs delta (load
			// excluded) so derived per-op rates describe the workload.
			d := src.Snapshot().Sub(pre)
			d.Ops = run.Ops
			d.Finalize()
			rec.SetObs(d)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%s\t%.2f\t%.2f\n",
			e.Name, load.Throughput(), run.Throughput(), run.Bound,
			run.PerOp(run.Mem.XPLineReads), run.PerOp(run.Mem.XPLineWrites))
	}
	tw.Flush()

	if rec != nil {
		if err := rec.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nartifact: %s\n", *jsonPath)
	}
}

func runMix(ix ixapi.Index, e harness.Entry, s harness.Scale, mix ycsb.Mix, theta float64, valSize int, withLatency bool) harness.Result {
	per := s.YCSBOps / s.MaxThreads
	if per == 0 {
		per = 1
	}
	src := harness.MixSource(mix, uint64(s.YCSBLoad), theta, valSize, 12345)
	var lat *harness.LatencyHist
	if withLatency {
		// Sequential per-worker execution so every operation's virtual
		// latency is sampled into the artifact.
		lat = &harness.LatencyHist{}
	}
	return harness.Run(mix.Name(), ix, s.MaxThreads, per, e.Pipeline, src, lat)
}
