package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"spash"
	"spash/internal/harness"
	"spash/internal/resp"
	"spash/internal/ycsb"
)

// netConfig is one -net invocation: a connection-count scan of a YCSB
// mix against a running spash-serve, next to the same op stream run
// in-process through Session.ExecBatch. Everything is wall-clocked; the
// virtual PM clock has no meaning across a socket.
type netConfig struct {
	addr     string
	mix      ycsb.Mix
	mixName  string
	records  int
	ops      int
	valSize  int
	theta    float64
	shards   int
	window   int
	connScan []int
	jsonPath string
}

func fatalNet(err error) {
	fmt.Fprintln(os.Stderr, "spash-ycsb -net:", err)
	os.Exit(1)
}

// parseConnScan parses the -connections list ("1,4,16").
func parseConnScan(s string) ([]int, error) {
	var scan []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -connections entry %q", f)
		}
		scan = append(scan, n)
	}
	return scan, nil
}

var cmdGet, cmdSet, cmdDel = []byte("GET"), []byte("SET"), []byte("DEL")

// driveConn sends ops [0, n) of next over cl in closed-loop windows —
// queue up to window commands, flush once, read every reply — and
// returns each window's round-trip time.
func driveConn(cl *resp.Client, next func(i int) harness.Op, n, window int) ([]int64, error) {
	var rtts []int64
	for i := 0; i < n; {
		start := time.Now()
		for ; i < n && cl.Pending() < window; i++ {
			switch op := next(i); op.Kind {
			case ycsb.OpSearch:
				cl.Cmd(cmdGet, op.Key)
			case ycsb.OpDelete:
				cl.Cmd(cmdDel, op.Key)
			default:
				cl.Cmd(cmdSet, op.Key, op.Val)
			}
		}
		if err := cl.Flush(); err != nil {
			return nil, err
		}
		for cl.Pending() > 0 {
			rep, err := cl.Next()
			if err != nil {
				return nil, err
			}
			if rep.IsError() {
				return nil, rep.Err()
			}
		}
		cl.Release()
		rtts = append(rtts, time.Since(start).Nanoseconds())
	}
	return rtts, nil
}

// driveNet runs per ops of src on each of conns connections and
// returns the phase's wall time with every window's round trip.
func driveNet(addr string, conns, per, window int, src harness.OpSource) (time.Duration, []int64, error) {
	cls := make([]*resp.Client, conns)
	for i := range cls {
		cl, err := resp.Dial(addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		defer cl.Close()
		cls[i] = cl
	}
	rtts := make([][]int64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for id, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rtts[id], errs[id] = driveConn(cl, src(id), per, window)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []int64
	for id := range cls {
		if errs[id] != nil {
			return 0, nil, errs[id]
		}
		all = append(all, rtts[id]...)
	}
	return elapsed, all, nil
}

// runInproc executes the load and then ops run-phase requests of src
// through one session's ExecBatch in window-sized batches and returns
// the run phase's wall time.
func runInproc(cfg netConfig, src harness.OpSource) (time.Duration, error) {
	db, err := spash.Open(spash.Options{Shards: cfg.shards})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	batch := make([]spash.Op, cfg.window)
	exec := func(next func(i int) harness.Op, n int) error {
		for i := 0; i < n; {
			b := batch[:0]
			for ; i < n && len(b) < cfg.window; i++ {
				op := next(i)
				// The source reuses its key/value buffers; a batch needs
				// every request's bytes at once.
				b = append(b, spash.Op{Kind: batchKind(op.Kind),
					Key:   append(batch[len(b)].Key[:0], op.Key...),
					Value: append(batch[len(b)].Value[:0], op.Val...)})
			}
			s.ExecBatch(b)
			for j := range b {
				if b[j].Err != nil {
					return b[j].Err
				}
			}
		}
		return nil
	}
	if err := exec(harness.LoadSource(cfg.records, cfg.valSize)(0), cfg.records); err != nil {
		return 0, err
	}
	start := time.Now()
	err = exec(src(0), cfg.ops)
	return time.Since(start), err
}

func batchKind(k ycsb.OpKind) spash.OpKind {
	switch k {
	case ycsb.OpSearch:
		return spash.OpGet
	case ycsb.OpDelete:
		return spash.OpDelete
	case ycsb.OpUpdate:
		return spash.OpUpdate
	default:
		return spash.OpInsert
	}
}

func wallResult(name string, ops int, d time.Duration) harness.ResultJSON {
	return harness.ResultJSON{Name: name, Ops: int64(ops), ElapsedNS: d.Nanoseconds(),
		Mops: float64(ops) / float64(d.Nanoseconds()) * 1e3, Bound: "wall"}
}

// runNet measures the in-process baseline, loads the server over one
// connection, scans the connection counts, prints the table and, with
// -json, writes the artifact: results inproc, load[net], serve[c=N];
// latency = window round trips of the last scan point;
// config.net_vs_inproc = slowest scan point over the baseline.
func runNet(cfg netConfig) error {
	src := harness.MixSource(cfg.mix, uint64(cfg.records), cfg.theta, cfg.valSize, 12345)
	config := map[string]string{
		"net": cfg.addr, "workload": cfg.mixName, "latency_unit": "window_rtt_wall_ns",
		"records": strconv.Itoa(cfg.records), "ops": strconv.Itoa(cfg.ops),
		"valuesize": strconv.Itoa(cfg.valSize), "theta": fmt.Sprintf("%g", cfg.theta),
		"shards": strconv.Itoa(cfg.shards), "window": strconv.Itoa(cfg.window),
	}
	rec := harness.NewRecorder("serve_"+strings.ReplaceAll(cfg.mixName, "-", "_"), config)

	inproc, err := runInproc(cfg, src)
	if err != nil {
		return fmt.Errorf("in-process baseline: %w", err)
	}
	base := wallResult("inproc", cfg.ops, inproc)
	rec.AddResult(base)
	fmt.Printf("inproc ExecBatch baseline   %.3f Mops/s (wall)\n", base.Mops)

	load, _, err := driveNet(cfg.addr, 1, cfg.records, cfg.window, harness.LoadSource(cfg.records, cfg.valSize))
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	rec.AddResult(wallResult("load[net]", cfg.records, load))

	var last harness.LatencySummary
	worst := 0.0
	for _, c := range cfg.connScan {
		per := max(cfg.ops/c, 1)
		elapsed, rtts, err := driveNet(cfg.addr, c, per, cfg.window, src)
		if err != nil {
			return fmt.Errorf("serve[c=%d]: %w", c, err)
		}
		r := wallResult(fmt.Sprintf("serve[c=%d]", c), per*c, elapsed)
		rec.AddResult(r)
		var lat harness.LatencyHist
		lat.Add(rtts)
		last = lat.Summary()
		ratio := r.Mops / base.Mops
		if worst == 0 || ratio < worst {
			worst = ratio
		}
		fmt.Printf("serve[c=%d]\t%.3f Mops/s  %3.0f%% of inproc   window-RTT %s\n", c, r.Mops, 100*ratio, &lat)
	}
	if cfg.jsonPath == "" {
		return nil
	}
	rec.SetLatency(last)
	config["net_vs_inproc"] = fmt.Sprintf("%.3f", worst)
	if err := rec.WriteFile(cfg.jsonPath); err != nil {
		return err
	}
	fmt.Printf("\nartifact: %s\n", cfg.jsonPath)
	return nil
}
