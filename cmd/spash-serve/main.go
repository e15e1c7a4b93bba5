// Command spash-serve exposes a sharded spash DB as a RESP2 network
// service: redis-cli and spash-cli -connect both speak to it. Each
// connection's read bursts drain through the engine's batched,
// shard-splitting pipeline; a bounded per-connection
// window provides backpressure; SIGINT drains gracefully (stop
// accepting, finish and acknowledge in-flight batches, then exit).
//
// Examples:
//
//	spash-serve -addr 127.0.0.1:6399 -shards 4
//	spash-serve -addr :6399 -metrics-addr 127.0.0.1:8080
//	redis-cli -p 6399 SET k v
//	spash-cli -connect 127.0.0.1:6399
//
// With -metrics-addr the process serves /metrics (Prometheus text),
// the /debug/spash JSON feeds (so spash-top -addr can attach to the
// live server) and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spash"
	"spash/internal/obs"
	"spash/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:6399", "TCP listen address")
		shards      = flag.Int("shards", 4, "partition the DB into N shards (independent devices + HTM domains)")
		maxBatch    = flag.Int("maxbatch", 128, "per-connection inflight window (largest batch per ExecBatch)")
		idle        = flag.Duration("idle-timeout", 0, "close connections idle for this long (0 = never)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/spash/*, /debug/pprof on this address (off when empty)")
	)
	flag.Parse()

	db, err := spash.Open(spash.Options{Shards: *shards})
	if err != nil {
		fmt.Fprintln(os.Stderr, spash.DescribeError(err))
		os.Exit(1)
	}

	stopMetrics := func() {}
	if *metricsAddr != "" {
		obs.SetSources(db.ExportSources())
		maddr, stop, err := obs.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		stopMetrics = stop
		fmt.Printf("metrics: http://%s/metrics (also /debug/spash/*, /debug/pprof)\n", maddr)
	}

	srv := server.New(db, server.Config{
		Addr:        *addr,
		MaxBatch:    *maxBatch,
		IdleTimeout: *idle,
	})
	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("spash-serve: listening on %s (%d shards, window %d)\n", bound, *shards, *maxBatch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("spash-serve: draining...")
	start := time.Now()
	_ = srv.Close()
	stopMetrics()
	db.Close()
	fmt.Printf("spash-serve: drained in %v\n", time.Since(start).Round(time.Millisecond))
}
