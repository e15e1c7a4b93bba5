// Chaos drills: replication over a deliberately hostile transport.
// Every arm of the matrix {drop, dup, reorder, partition} × {eADR,
// ADR} × {steady, failover-mid-partition} runs a seeded workload
// through repl.FaultyTransport, power-cycles the replica mid-script
// (driving the cursor-handshake replay under eADR and the automated
// re-seed under ADR), and holds two oracles:
//
//   - Zero lost acknowledged writes. Steady arms must converge on the
//     full acknowledged model after the transport heals; failover arms
//     promote the replica mid-partition and the survivor must hold
//     exactly the synchronously-acknowledged model (writes accepted
//     while the breaker was open are degraded-async by documented
//     contract and excluded — but writes acknowledged while the
//     breaker was closed may never be missing or wrong).
//   - Bounded convergence. The primary never blocks a write
//     indefinitely (every op returns, partition or not), degradation
//     is visible to health while it lasts, and a bounded number of
//     drain passes brings lag to zero, the breaker closed, and health
//     back to OK — with auto-resync doing any replay or re-seeding
//     without operator action.
package crashtest

import (
	"errors"
	"fmt"
	"time"

	"spash"
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/pmem"
	"spash/internal/repl"
)

// ChaosFault names a transport fault family.
type ChaosFault string

const ChaosPartition ChaosFault = "partition"

// chaosRates maps each family onto FaultyTransport rates. The
// partition family injects no byzantine rates — its cut is driven
// deterministically at the workload midpoint — while the others keep
// the transport lossy for the entire run, drain included.
var chaosRates = map[ChaosFault]repl.FaultSpec{
	"drop":         {Drop: 0.3},
	"dup":          {Dup: 0.3, Delay: 0.15},     // lost acks: the other way duplicates happen
	"reorder":      {Reorder: 0.25, Drop: 0.05}, // stragglers need gaps to land out-of-order into
	ChaosPartition: {},
}

// ChaosArm is one cell of the chaos matrix.
type ChaosArm struct {
	Fault ChaosFault `json:"fault"`
	Mode  pmem.Mode  `json:"mode"`
	// Failover promotes the replica mid-partition instead of letting
	// the transport heal.
	Failover bool  `json:"failover"`
	Seed     int64 `json:"seed"`
}

// spec is the arm's family's rates under the arm's seed.
func (a ChaosArm) spec() repl.FaultSpec {
	s := chaosRates[a.Fault]
	s.Seed = a.Seed
	return s
}

// Name is the arm's report identifier, e.g. "drop/eadr/steady".
func (a ChaosArm) Name() string {
	phase := "steady"
	if a.Failover {
		phase = "failover"
	}
	return fmt.Sprintf("%s/%s/%s", a.Fault, modeName(a.Mode), phase)
}

// ChaosArms enumerates the full 16-arm matrix with per-arm seeds
// derived from base.
func ChaosArms(base int64) []ChaosArm {
	var out []ChaosArm
	for _, f := range []ChaosFault{"drop", "dup", "reorder", ChaosPartition} {
		for _, m := range []pmem.Mode{pmem.EADR, pmem.ADR} {
			for _, fo := range []bool{false, true} {
				out = append(out, ChaosArm{Fault: f, Mode: m, Failover: fo, Seed: base + int64(len(out))})
			}
		}
	}
	return out
}

// ChaosTrial is the outcome of one chaos-matrix cell.
type ChaosTrial struct {
	Arm ChaosArm `json:"arm"`
	Ops int      `json:"ops"`

	// RejoinReseeded reports that the mid-script replica power-cycle
	// rolled back applied state (possible under ADR only) and the
	// typed reseed path was taken.
	RejoinReseeded bool `json:"rejoin_reseeded"`

	// DegradedSeen: during the partition, the breaker was open and
	// health reported the degradation (checked on partition and
	// failover arms).
	DegradedSeen bool `json:"degraded_seen"`

	// DrainPasses is the number of TryDrain/Resync passes convergence
	// needed; ConvergeErr the last error if it never converged.
	DrainPasses int    `json:"drain_passes"`
	ConvergeErr string `json:"converge_err,omitempty"`

	// Failover-arm outcomes: promotion error, survivor epoch, and the
	// deposed primary's post-promotion drain being fenced typed.
	PromoteErr    string `json:"promote_err,omitempty"`
	Epoch         uint64 `json:"epoch,omitempty"`
	FencedDeposed bool   `json:"fenced_deposed"`

	// Oracle outcomes against the survivor.
	LostAcked    int    `json:"lost_acked"`
	LenMismatch  bool   `json:"len_mismatch"`
	InvariantErr string `json:"invariant_err,omitempty"`
	Misplaced    int    `json:"misplaced"`

	// End-state (steady arms must close the loop completely).
	BreakerEnd string `json:"breaker_end"`
	SpillEnd   int    `json:"spill_end"`
	LagEnd     int    `json:"lag_end"`
	HealthEnd  string `json:"health_end"`

	// Transport and counter evidence (what the chaos actually did).
	Faults   repl.FaultStats `json:"faults"`
	Retries  int64           `json:"retries"`
	Trips    int64           `json:"breaker_trips"`
	Spills   int64           `json:"spills"`
	Resyncs  int64           `json:"resyncs"`
	Replays  int64           `json:"replays"`
	Reseeds  int64           `json:"reseeds"`
	ApplyDup int64           `json:"apply_dupes"`
}

// Failed reports whether the trial violated the chaos contract.
func (tr *ChaosTrial) Failed() bool { return tr.Err() != nil }

// Err formats the trial's first violation, or nil. Every arm must hold
// the survivor oracle; a failover arm must also promote, fence and have
// shown the partition as DEGRADED; a steady arm must close the loop
// completely (and a partitioned one must have shown it too).
func (tr *ChaosTrial) Err() error {
	name, steady := tr.Arm.Name(), !tr.Arm.Failover
	switch {
	case tr.LostAcked > 0:
		return fmt.Errorf("%s: %d acknowledged writes lost on survivor", name, tr.LostAcked)
	case tr.LenMismatch:
		return fmt.Errorf("%s: survivor length disagrees with acknowledged model", name)
	case tr.InvariantErr != "":
		return fmt.Errorf("%s: survivor invariants: %s", name, tr.InvariantErr)
	case tr.Misplaced > 0:
		return fmt.Errorf("%s: %d misplaced records on survivor", name, tr.Misplaced)
	case !steady && tr.PromoteErr != "":
		return fmt.Errorf("%s: promotion failed: %s", name, tr.PromoteErr)
	case !steady && !tr.FencedDeposed:
		return fmt.Errorf("%s: deposed primary's drain was not fenced typed", name)
	case (!steady || tr.Arm.Fault == ChaosPartition) && !tr.DegradedSeen:
		return fmt.Errorf("%s: partition did not surface as DEGRADED health", name)
	case steady && tr.ConvergeErr != "":
		return fmt.Errorf("%s: did not converge in %d passes: %s", name, tr.DrainPasses, tr.ConvergeErr)
	case steady && (tr.BreakerEnd != "closed" || tr.SpillEnd > 0 || tr.LagEnd > 0):
		return fmt.Errorf("%s: loop not closed (breaker=%s spill=%d lag=%d)",
			name, tr.BreakerEnd, tr.SpillEnd, tr.LagEnd)
	case steady && tr.HealthEnd != "OK":
		return fmt.Errorf("%s: health after convergence = %s", name, tr.HealthEnd)
	}
	return nil
}

// RunChaosTrial executes one matrix cell over ops seeded operations.
func RunChaosTrial(arm ChaosArm, ops int) (ChaosTrial, error) {
	tr := ChaosTrial{Arm: arm, Ops: ops}
	// Fail fast, no wall-clock: backoff sleeps are a no-op — convergence
	// is driven by explicit passes so the trial is deterministic for its
	// seed.
	opts := options(2, arm.Mode, core.Config{})
	sys, err := open(opts, &Peer{Faults: arm.spec()}, repl.RetryPolicy{MaxAttempts: 3,
		Sleep: func(time.Duration) {}, Deadline: -1, JitterSeed: arm.Seed + 1})
	if err != nil {
		return tr, err
	}
	pdb, rep, ft, prim := sys.db, sys.rep, sys.ft, sys.prim
	defer func() {
		prim.Close()
		rep.Close()
		pdb.Close()
		rep.DB().Close()
	}()

	script := SeededScript(arm.Seed, ops)
	m := newModel(script)
	mid := len(script) / 2
	rejoinAt := len(script) / 4

	// The first half ships with a replica node power-cycle mid-stream:
	// under eADR the cursor anchors a handshake replay; under ADR a
	// rollback takes the typed reseed path. Both repair on the next ship
	// with no operator step.
	firstHalf := func() error {
		if err := play(prim, script, 0, rejoinAt, m); err != nil {
			return err
		}
		if rerr := rep.Rejoin(opts); rerr != nil {
			if !errors.Is(rerr, spash.ErrNeedsReseed) {
				return fmt.Errorf("rejoin at op %d: %w", rejoinAt, rerr)
			}
			tr.RejoinReseeded = true
		}
		return play(prim, script, rejoinAt, mid, m)
	}
	settle := func() error {
		passes, cerr := converge(prim)
		tr.DrainPasses += passes
		return cerr
	}

	if arm.Failover {
		// Phase A ships synchronously (faults and all), then converges:
		// everything acknowledged so far is on the replica — the
		// synchronously-acknowledged model the survivor must hold.
		if err := firstHalf(); err != nil {
			return tr, err
		}
		if cerr := settle(); cerr != nil {
			tr.ConvergeErr = cerr.Error()
			return tr, nil
		}
		ackedSync := m.snapshot()
		// The cut: phase B's writes keep succeeding locally (the
		// primary must never block indefinitely) but spill — they are
		// acknowledged degraded-async, visible as DEGRADED health, and
		// are NOT part of the survivor oracle.
		ft.Cut()
		if err := play(prim, script, mid, len(script), m); err != nil {
			return tr, err
		}
		st, _ := prim.Breaker()
		tr.DegradedSeen = st == repl.BreakerOpen &&
			pdb.Health().Status == obs.HealthDegraded
		// Failover: promote the replica mid-partition.
		epoch, perr := rep.Promote()
		if perr != nil {
			tr.PromoteErr = perr.Error()
		}
		tr.Epoch = epoch
		// The partition heals and the deposed primary tries to drain
		// its spill: every frame must be rejected typed by the
		// promoted node's epoch fence.
		ft.Heal()
		if _, derr := prim.TryDrain(); errors.Is(derr, spash.ErrNotPrimary) && prim.Deposed() {
			tr.FencedDeposed = true
		}
		tr.judgeSurvivor(rep.DB(), ackedSync)
	} else {
		if err := firstHalf(); err != nil {
			return tr, err
		}
		if arm.Fault == ChaosPartition {
			ft.Cut()
		}
		if err := play(prim, script, mid, len(script), m); err != nil {
			return tr, err
		}
		if arm.Fault == ChaosPartition {
			st, _ := prim.Breaker()
			tr.DegradedSeen = st == repl.BreakerOpen &&
				pdb.Health().Status == obs.HealthDegraded
			ft.Heal()
		}
		if cerr := settle(); cerr != nil {
			tr.ConvergeErr = cerr.Error()
		}
		tr.judgeSurvivor(rep.DB(), m)
	}

	// End state and evidence.
	st, _ := prim.Breaker()
	tr.BreakerEnd = st.String()
	tr.SpillEnd = prim.SpillDepth()
	tr.LagEnd = rep.Lag()
	if arm.Failover {
		tr.HealthEnd = rep.DB().Health().Status.String()
	} else {
		tr.HealthEnd = pdb.Health().Status.String()
	}
	tr.Faults = ft.Stats()
	snap := pdb.ObsSnapshot()
	tr.Retries = snap.Counters[obs.CounterNames[obs.CReplRetries]]
	tr.Trips = snap.Counters[obs.CounterNames[obs.CReplBreakerTrips]]
	tr.Spills = snap.Counters[obs.CounterNames[obs.CReplSpills]]
	tr.Resyncs = snap.Counters[obs.CounterNames[obs.CReplResyncs]]
	tr.Replays = snap.Counters[obs.CounterNames[obs.CReplReplays]]
	tr.Reseeds = snap.Counters[obs.CounterNames[obs.CReplReseeds]]
	rsnap := rep.DB().ObsSnapshot()
	tr.ApplyDup = rsnap.Counters[obs.CounterNames[obs.CReplApplyDupes]]
	return tr, nil
}

// judgeSurvivor holds the exact oracle and the structural checks
// against the surviving replica image.
func (tr *ChaosTrial) judgeSurvivor(sdb *spash.DB, m *model) {
	s := sdb.Session()
	defer s.Close()
	v := judge(s, sdb.Len(), m, false, false, nil)
	tr.LostAcked, tr.LenMismatch = v.StillLost+v.Wrong+v.Unreadable+v.Untyped, v.LenMismatch
	var ierr error
	if tr.Misplaced, ierr = structure(sdb, s); ierr != nil {
		tr.InvariantErr = ierr.Error()
	}
}

// ChaosResult aggregates a matrix sweep.
type ChaosResult struct {
	Ops      int
	Trials   []ChaosTrial
	Failures int
}

// ChaosSweep runs every arm over ops operations.
func ChaosSweep(arms []ChaosArm, ops int) (ChaosResult, error) {
	res := ChaosResult{Ops: ops}
	for _, arm := range arms {
		tr, err := RunChaosTrial(arm, ops)
		if err != nil {
			return res, fmt.Errorf("chaos %s: %w", arm.Name(), err)
		}
		res.Trials = append(res.Trials, tr)
		if tr.Failed() {
			res.Failures++
		}
	}
	return res, nil
}
