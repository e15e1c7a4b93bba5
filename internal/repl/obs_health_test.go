package repl_test

import (
	"errors"
	"strings"
	"testing"

	"spash"
	"spash/internal/obs"
	"spash/internal/repl"
)

// Every operation sampled: the slow-op log must retain ops with
// per-phase attribution, and the per-shard snapshots must carry the
// phase histograms.
func TestSlowOpsAttribution(t *testing.T) {
	opts := testOpts(2)
	opts.Index.SpanSample = 1
	db, err := spash.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	const n = 400
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(key64(i), key64(i*7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if _, _, err := s.Get(key64(i), nil); err != nil {
			t.Fatal(err)
		}
	}

	ops := db.SlowOps(8)
	if len(ops) == 0 {
		t.Fatal("slow-op log empty after fully sampled run")
	}
	for _, op := range ops {
		if op.TotalNS <= 0 {
			t.Fatalf("slow op without duration: %+v", op)
		}
		if op.Op != "insert" && op.Op != "get" {
			t.Fatalf("unexpected op kind %q", op.Op)
		}
		if op.Shard < 0 || op.Shard >= 2 {
			t.Fatalf("slow op shard %d out of range", op.Shard)
		}
		if len(op.Phases) == 0 {
			t.Fatalf("slow op without phase attribution: %+v", op)
		}
		var sum int64
		for _, d := range op.Phases {
			sum += d
		}
		if sum > op.TotalNS {
			t.Fatalf("phases sum %d exceeds total %d: %+v", sum, op.TotalNS, op)
		}
	}
	// Worst-first ordering.
	for i := 1; i < len(ops); i++ {
		if ops[i].TotalNS > ops[i-1].TotalNS {
			t.Fatalf("slow ops not sorted: [%d]=%d > [%d]=%d", i, ops[i].TotalNS, i-1, ops[i-1].TotalNS)
		}
	}

	// Per-shard snapshots carry phase and op-kind histograms.
	shards := db.ObsSnapshots()
	if len(shards) != 2 {
		t.Fatalf("ObsSnapshots: %d shards", len(shards))
	}
	for i, snap := range shards {
		if snap.Phases[obs.PhaseNames[obs.PhaseProbe]].Count() == 0 {
			t.Fatalf("shard %d: no probe phase samples", i)
		}
		if snap.OpLat[obs.SpanKindNames[obs.SpanInsert]].Count() == 0 {
			t.Fatalf("shard %d: no insert op-lat samples", i)
		}
	}
	// Aggregate view sums the shards.
	agg := db.ObsSnapshot()
	var perShard int64
	for _, snap := range shards {
		perShard += snap.Phases[obs.PhaseNames[obs.PhaseProbe]].Count()
	}
	if got := agg.Phases[obs.PhaseNames[obs.PhaseProbe]].Count(); got != perShard {
		t.Fatalf("aggregate probe samples %d != per-shard sum %d", got, perShard)
	}
}

// A paused replica accumulates lag; the health model must degrade the
// replica's verdict with a lag reason and recover after Resume.
func TestPausedReplicaHealthDegraded(t *testing.T) {
	prim, rep := pair(t, 2)
	for i := uint64(0); i < 50; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := rep.DB().Health()
	if h.ReplLagRecords != 0 {
		t.Fatalf("synchronous ship left lag: %+v", h)
	}
	for _, r := range h.Reasons {
		if strings.Contains(r, "behind") {
			t.Fatalf("lag reason on an in-sync replica: %v", h.Reasons)
		}
	}

	rep.Pause()
	const lagged = 10
	for i := uint64(100); i < 100+lagged; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.Lag(); got != lagged {
		t.Fatalf("Lag() = %d, want %d", got, lagged)
	}
	if rep.LagBytes() <= 0 {
		t.Fatalf("LagBytes() = %d, want > 0", rep.LagBytes())
	}
	h = rep.DB().Health()
	if h.Status < obs.HealthDegraded {
		t.Fatalf("paused replica health = %v, want >= DEGRADED (%+v)", h.Status, h)
	}
	if h.ReplLagRecords != lagged {
		t.Fatalf("health lag records = %d, want %d", h.ReplLagRecords, lagged)
	}
	if h.ReplLagBytes != int64(rep.LagBytes()) {
		t.Fatalf("health lag bytes = %d, want %d", h.ReplLagBytes, rep.LagBytes())
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "behind") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lag reason in %v", h.Reasons)
	}

	if err := rep.Resume(); err != nil {
		t.Fatal(err)
	}
	h = rep.DB().Health()
	if h.ReplLagRecords != 0 || h.ReplLagBytes != 0 {
		t.Fatalf("lag gauges not cleared after Resume: %+v", h)
	}
	for _, r := range h.Reasons {
		if strings.Contains(r, "behind") {
			t.Fatalf("lag reason survived Resume: %v", h.Reasons)
		}
	}

	// The primary recorded repl_ship phase time for shipped frames.
	aggr := prim.DB().ObsSnapshot()
	if aggr.Phases[obs.PhaseNames[obs.PhaseReplShip]].Count() == 0 {
		t.Fatal("no repl_ship phase samples on the primary")
	}
}

// A primary whose log is full of frames the peer has not acknowledged
// is about to shed — the worst state the shipping path has, since a
// full re-seed is then inevitable — and must read CRITICAL under
// default watermarks, not DEGRADED like one owed frame. The level
// clears when the drain does.
func TestFullLogHealthCritical(t *testing.T) {
	var ft *flakyTransport
	prim, _ := pairOver(t, 2,
		repl.PrimaryOptions{Retry: fastRetry(2), ProbeInterval: -1},
		func(inner repl.Transport) repl.Transport {
			ft = &flakyTransport{inner: inner}
			return ft
		})
	ft.setDown(true)
	i := uint64(0)
	write := func(n int) error {
		var err error
		for ; n > 0; n-- {
			err = prim.Insert(key64(i), key64(i))
			i++
		}
		return err
	}
	if err := write(repl.PrimaryLogFrames - 1); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if h := prim.DB().Health(); h.Status != obs.HealthDegraded {
		t.Fatalf("health one frame short of the bound = %v (%v), want DEGRADED", h.Status, h.Reasons)
	}
	if err := write(1); err != nil {
		t.Fatalf("write filling the log: %v", err)
	}
	if h := prim.DB().Health(); h.Status != obs.HealthCritical {
		t.Fatalf("health with a full log = %v (%v), want CRITICAL", h.Status, h.Reasons)
	}
	if err := write(1); !errors.Is(err, spash.ErrRetryExhausted) {
		t.Fatalf("write past the bound: %v, want ErrRetryExhausted", err)
	}
	h := prim.DB().Health()
	if h.Status != obs.HealthCritical || h.SpillDepth != repl.PrimaryLogFrames {
		t.Fatalf("health while shedding = %v, spill %d (%v), want CRITICAL at %d",
			h.Status, h.SpillDepth, h.Reasons, repl.PrimaryLogFrames)
	}
	ft.setDown(false)
	if _, err := prim.TryDrain(); err != nil {
		t.Fatalf("TryDrain: %v", err)
	}
	if h := prim.DB().Health(); h.Status != obs.HealthOK {
		t.Fatalf("health after heal + drain = %v (%v), want OK", h.Status, h.Reasons)
	}
}
