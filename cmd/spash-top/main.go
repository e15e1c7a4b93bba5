// Command spash-top is a terminal viewer for a live Spash database's
// latency-attribution feeds: per-shard throughput and HTM abort rates,
// per-phase latency percentiles from sampled spans, the slow-op log,
// and the health verdict, refreshed by diffing successive snapshots.
//
// It attaches to a process serving the observability mux (spash-serve
// started with -metrics-addr, reading the /debug/spash JSON feeds), or
// runs a self-hosted demo database with background load:
//
//	spash-top -addr 127.0.0.1:8080
//	spash-top -demo -shards 4
//	spash-top -demo -once           # one frame, no screen control
//
// All durations are virtual nanoseconds from the performance model's
// clock except the repl_ship phase, which is wall-clock (the transport
// is outside the virtual clock).
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"spash"
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/repl"
)

// config is what the command line asks for.
type config struct {
	addr       string
	demo, once bool
	interval   time.Duration
	shards     int
	slowN      int
}

// parse turns the command line into a config, refusing values the
// viewer cannot render.
func parse(args []string) (config, error) {
	fs := flag.NewFlagSet("spash-top", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "", "attach to a /debug/spash exporter at this host:port")
	fs.BoolVar(&cfg.demo, "demo", false, "run a self-hosted demo DB with background load")
	fs.BoolVar(&cfg.once, "once", false, "print one frame and exit (no screen control)")
	fs.DurationVar(&cfg.interval, "interval", time.Second, "refresh interval")
	fs.IntVar(&cfg.shards, "shards", 4, "demo DB shard count")
	fs.IntVar(&cfg.slowN, "n", 8, "slow-op rows shown")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case !cfg.demo && cfg.addr == "":
		return cfg, errors.New("need -addr host:port or -demo")
	case cfg.slowN < 0:
		return cfg, fmt.Errorf("-n %d is negative", cfg.slowN)
	case cfg.interval <= 0:
		return cfg, fmt.Errorf("-interval %v is not positive", cfg.interval)
	}
	return cfg, nil
}

func main() {
	cfg, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spash-top: %v\n", err)
		os.Exit(2)
	}

	var f feed
	if cfg.demo {
		d, stop, err := startDemo(cfg.shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, spash.DescribeError(err))
			os.Exit(1)
		}
		defer stop()
		f = d
	} else {
		f = &httpFeed{base: "http://" + strings.TrimPrefix(cfg.addr, "http://")}
	}

	if cfg.once {
		// Give a demo DB a beat of load so the frame has content.
		if cfg.demo {
			time.Sleep(300 * time.Millisecond)
		}
		frame, err := capture(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spash-top: %v\n", err)
			os.Exit(1)
		}
		render(os.Stdout, frame, nil, cfg.interval, cfg.slowN)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var prev *frame
	tick := time.NewTicker(cfg.interval)
	defer tick.Stop()
	for {
		cur, err := capture(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spash-top: %v\n", err)
			os.Exit(1)
		}
		var b strings.Builder
		b.WriteString("\x1b[2J\x1b[H") // clear, home
		render(&b, cur, prev, cfg.interval, cfg.slowN)
		os.Stdout.WriteString(b.String())
		prev = cur
		select {
		case <-sig:
			return
		case <-tick.C:
		}
	}
}

// frame is one captured set of feeds.
type frame struct {
	agg    obs.Snapshot
	shards []obs.Snapshot
	slow   []obs.SlowOp
	health obs.Health
	at     time.Time
}

// feed abstracts the two backends (HTTP attach, in-process demo).
type feed interface {
	snapshot() (obs.Snapshot, error)
	perShard() ([]obs.Snapshot, error)
	slowOps(n int) ([]obs.SlowOp, error)
	healthNow() (obs.Health, error)
}

func capture(f feed) (*frame, error) {
	agg, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	sh, err := f.perShard()
	if err != nil {
		return nil, err
	}
	slow, err := f.slowOps(64)
	if err != nil {
		return nil, err
	}
	h, err := f.healthNow()
	if err != nil {
		return nil, err
	}
	return &frame{agg: agg, shards: sh, slow: slow, health: h, at: time.Now()}, nil
}

// ---- rendering ----

func render(w interface{ WriteString(string) (int, error) }, cur, prev *frame, interval time.Duration, slowN int) {
	var b strings.Builder

	// Interval view: rates come from the diff when a previous frame
	// exists, cumulative totals otherwise.
	view := cur.agg
	viewShards := cur.shards
	secs := 0.0
	if prev != nil {
		view = cur.agg.Sub(prev.agg)
		secs = cur.at.Sub(prev.at).Seconds()
		if len(prev.shards) == len(cur.shards) {
			viewShards = make([]obs.Snapshot, len(cur.shards))
			for i := range cur.shards {
				viewShards[i] = cur.shards[i].Sub(prev.shards[i])
			}
		}
	}

	h := cur.health
	fmt.Fprintf(&b, "spash-top  %d shard(s)  %s\n", len(cur.shards), cur.at.Format("15:04:05"))
	fmt.Fprintf(&b, "health: %s", h.Status)
	if len(h.Reasons) > 0 {
		fmt.Fprintf(&b, "  (%s)", strings.Join(h.Reasons, "; "))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "quarantines %d  repl lag %d recs / %s  abort rate %.3f/commit\n",
		h.Quarantines, h.ReplLagRecords, fmtBytes(h.ReplLagBytes), h.AbortRate)
	// Delivery hardening: breaker state and spill depth are levels from
	// the health verdict; retry/resync counters are cumulative (not
	// interval-diffed) so a glance shows whether the transport has ever
	// struggled.
	fmt.Fprintf(&b, "repl: breaker %s  spill %d frame(s)  retries %d  resyncs %d (replays %d, reseeds %d)\n",
		repl.BreakerState(h.BreakerState), h.SpillDepth,
		cur.agg.Counters[obs.CounterNames[obs.CReplRetries]],
		cur.agg.Counters[obs.CounterNames[obs.CReplResyncs]],
		cur.agg.Counters[obs.CounterNames[obs.CReplReplays]],
		cur.agg.Counters[obs.CounterNames[obs.CReplReseeds]])

	// RESP front end (spash-serve): shown only when the feed's process
	// has ever accepted a connection, so library-only exporters keep
	// their old frame layout. Connection/inflight are levels; commands
	// and batch shape come from the interval view.
	if _, serving := cur.agg.Counters[obs.CounterNames[obs.CServeAccepts]]; serving {
		cmds := view.Counters[obs.CounterNames[obs.CServeCmds]]
		batch := view.Hists[obs.HistNames[obs.HServeBatch]]
		if secs > 0 {
			fmt.Fprintf(&b, "serve: conns %d  inflight %d  %s cmds/s",
				cur.agg.Gauges[obs.GaugeNames[obs.GServeConns]],
				cur.agg.Gauges[obs.GaugeNames[obs.GServeInflight]],
				fmtCount(int64(float64(cmds)/secs)))
		} else {
			fmt.Fprintf(&b, "serve: conns %d  inflight %d  %s cmds",
				cur.agg.Gauges[obs.GaugeNames[obs.GServeConns]],
				cur.agg.Gauges[obs.GaugeNames[obs.GServeInflight]],
				fmtCount(cmds))
		}
		fmt.Fprintf(&b, "  batch p50/p99 %d/%d  get/set/del/other %s/%s/%s/%s  errors %d\n",
			batch.Percentile(50), batch.Percentile(99),
			fmtCount(view.Counters[obs.CounterNames[obs.CServeCmdGet]]),
			fmtCount(view.Counters[obs.CounterNames[obs.CServeCmdSet]]),
			fmtCount(view.Counters[obs.CounterNames[obs.CServeCmdDel]]),
			fmtCount(view.Counters[obs.CounterNames[obs.CServeCmdOther]]),
			cur.agg.Counters[obs.CounterNames[obs.CServeErrors]])
	}
	b.WriteString("\n")

	commits := view.HTM.Commits
	aborts := view.HTM.Conflicts + view.HTM.Capacities + view.HTM.Explicits
	if secs > 0 {
		fmt.Fprintf(&b, "throughput %s commits/s", fmtCount(int64(float64(commits)/secs)))
	} else {
		fmt.Fprintf(&b, "total %s commits", fmtCount(commits))
	}
	rate := 0.0
	if commits > 0 {
		rate = float64(aborts) / float64(commits)
	}
	fmt.Fprintf(&b, "  aborts/commit %.3f  media %s read / %s written\n\n",
		rate, fmtBytes(int64(view.Mem.MediaReadBytes())), fmtBytes(int64(view.Mem.MediaWriteBytes())))

	// Per-shard table.
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "shard\tcommits\taborts/c\tprobe p99\tpublish p99\tflush p99\tlag recs\t")
	for i, s := range viewShards {
		c := s.HTM.Commits
		a := s.HTM.Conflicts + s.HTM.Capacities + s.HTM.Explicits
		ar := 0.0
		if c > 0 {
			ar = float64(a) / float64(c)
		}
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%s\t%s\t%s\t%d\t\n",
			i, fmtCount(c), ar,
			fmtDur(s.Phases[obs.PhaseNames[obs.PhaseProbe]].PercentileNS(99)),
			fmtDur(s.Phases[obs.PhaseNames[obs.PhasePublish]].PercentileNS(99)),
			fmtDur(s.Phases[obs.PhaseNames[obs.PhaseMediaFlush]].PercentileNS(99)),
			s.Gauges[obs.GaugeNames[obs.GReplLagRecords]])
	}
	tw.Flush()
	b.WriteString("\n")

	// Phase-latency table (sampled spans).
	tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tp50\tp99\tsamples")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := obs.PhaseNames[p]
		d, ok := view.Phases[name]
		if !ok || d.Count() == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", name,
			fmtDur(d.PercentileNS(50)), fmtDur(d.PercentileNS(99)), d.Count())
	}
	tw.Flush()
	b.WriteString("\n")

	// Slow-op log (cumulative worst-N, not interval-diffed).
	slow := cur.slow
	if len(slow) > slowN {
		slow = slow[:slowN]
	}
	fmt.Fprintf(&b, "slowest sampled ops (worst %d retained)\n", len(slow))
	tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tshard\ttotal\taborts\tkey\tphases")
	for _, op := range slow {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%016x\t%s\n",
			op.Op, op.Shard, fmtDur(op.TotalNS), op.Aborts, op.Key, fmtPhases(op.Phases))
	}
	tw.Flush()

	w.WriteString(b.String())
}

// fmtPhases renders a slow op's phase map compactly, largest first.
func fmtPhases(m map[string]int64) string {
	type kv struct {
		k string
		v int64
	}
	var parts []kv
	for k, v := range m {
		parts = append(parts, kv{k, v})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].v > parts[j].v })
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%s", p.k, fmtDur(p.v))
	}
	return sb.String()
}

func fmtDur(ns int64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}

func fmtCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ---- HTTP attach backend ----

type httpFeed struct {
	base   string
	client http.Client
}

func (h *httpFeed) get(path string, v any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (h *httpFeed) snapshot() (obs.Snapshot, error) {
	var s obs.Snapshot
	err := h.get("/debug/spash/snapshot", &s)
	return s, err
}

func (h *httpFeed) perShard() ([]obs.Snapshot, error) {
	var s []obs.Snapshot
	err := h.get("/debug/spash/shards", &s)
	return s, err
}

func (h *httpFeed) slowOps(n int) ([]obs.SlowOp, error) {
	var s []obs.SlowOp
	err := h.get(fmt.Sprintf("/debug/spash/slowlog?n=%d", n), &s)
	return s, err
}

func (h *httpFeed) healthNow() (obs.Health, error) {
	var hh obs.Health
	err := h.get("/debug/spash/health", &hh)
	return hh, err
}

// ---- self-hosted demo backend ----

type demoFeed struct {
	db *spash.DB
}

func (d *demoFeed) snapshot() (obs.Snapshot, error)     { return d.db.ObsSnapshot(), nil }
func (d *demoFeed) perShard() ([]obs.Snapshot, error)   { return d.db.ObsSnapshots(), nil }
func (d *demoFeed) slowOps(n int) ([]obs.SlowOp, error) { return d.db.SlowOps(n), nil }
func (d *demoFeed) healthNow() (obs.Health, error)      { return d.db.Health(), nil }

// startDemo opens an n-shard DB with aggressive span sampling and
// runs background mixed load until stop is called.
func startDemo(n int) (*demoFeed, func(), error) {
	db, err := spash.Open(spash.Options{
		Shards: n,
		Index:  core.Config{SpanSample: 4},
	})
	if err != nil {
		return nil, nil, err
	}
	var stopped atomic.Bool
	workers := 2
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			s := db.Session()
			defer s.Close()
			rng := rand.New(rand.NewSource(seed))
			key := make([]byte, 8)
			val := make([]byte, 32)
			for !stopped.Load() {
				binary.LittleEndian.PutUint64(key, uint64(rng.Intn(200000)))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					if _, _, err := s.Get(key, nil); err != nil {
						return
					}
				case 4, 5, 6:
					if err := s.Insert(key, val); err != nil {
						return
					}
				case 7, 8:
					if _, err := s.Update(key, val); err != nil {
						return
					}
				default:
					if _, err := s.Delete(key); err != nil {
						return
					}
				}
			}
		}(int64(w) + 1)
	}
	stop := func() {
		stopped.Store(true)
		for w := 0; w < workers; w++ {
			<-done
		}
		db.Close()
	}
	return &demoFeed{db: db}, stop, nil
}
