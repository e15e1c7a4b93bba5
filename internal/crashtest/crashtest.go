// Package crashtest is the fault-injection harness behind the paper's
// §II-C claim: under eADR visibility implies durability, so a power cut
// at any instant recovers. A trial is data — a Drill — and Run is the
// one engine that executes it: the only place a system is opened, ops
// applied, devices power-cycled, a database recovered, repaired, healed,
// promoted or judged (by the one oracle, judge). The arm tables are
// rows of Drills; SweepSteps runs a row at every crash step — the
// coverage RECIPE showed is where PM indexes actually break — and
// SweepSeeds across a seed set. DESIGN.md §5 *Drills* has the table of
// drills, the oracle's contract and the rule for the two scenarios
// (chaos.go, concurrent.go) that keep bodies of their own on the
// engine's parts.
//
// Scripts run single-threaded in ModeHTM, which makes every sweep
// deterministic. The lock-based ablation modes are deliberately out of
// scope — their raw stores tear mid-operation by design, which is the
// very reason the paper builds on HTM.
package crashtest

import (
	"errors"
	"fmt"

	"spash"
	"spash/internal/pmem"
	"spash/internal/repl"
)

// Media is the damage a power cut carries: single-bit rot, torn ADR
// write-backs (a budget — it tears what is dirty at the cut, honestly
// nothing under eADR), poisoned XPLines.
type Media struct {
	Seed                             uint64
	BitFlips, TornLines, PoisonLines int
}

func (m Media) armed() bool { return m.BitFlips > 0 || m.TornLines > 0 || m.PoisonLines > 0 }

// needsFrames: bit flips and poison aim at live segment frames (the
// segment layout is what is self-verifying), and listing those scans
// the registry — possible only at a quiescent point.
func (m Media) needsFrames() bool { return m.BitFlips > 0 || m.PoisonLines > 0 }

// Peer attaches an in-process replica in its own fault domain: it
// takes no crash, so it holds exactly the stream the primary shipped.
type Peer struct {
	Faults repl.FaultSpec // the wire between the two (zero: perfect)
	// SyncAt > 0 runs the first SyncAt ops unshipped, then seeds the
	// replica with a sealed-segment full sync — the bulk path — before
	// the rest ships record by record.
	SyncAt int
	// Promote says what the replica is for. True: the primary's cut is
	// final and the promoted replica is the survivor the oracle judges.
	// False: the primary recovers and heals what its repair pass
	// quarantined from the replica (read-repair).
	Promote bool
}

// Drill is one trial, as data.
type Drill struct {
	Name   string
	Opts   spash.Options // shards, persistence domain, pool and cache, flush policies, checksums
	Script Script

	// CrashStep > 0 cuts power just before that persistence-primitive
	// step (1-based) of shard Target's device, mid-operation; the
	// siblings, between operations, lose power with it. A step beyond
	// the workload never fires; 0 only counts steps.
	CrashStep  int64
	Target     int
	PowerCycle bool  // cut every device once the script completes, unless CrashStep fired first
	Media      Media // rides whichever cut fires
	Peer       *Peer
	Repair     bool // fsck may quarantine and rebuild damaged segments
	// Fill says the script runs the pool out of space on purpose: a
	// write refused with ErrNoSpace is not acknowledged and the script
	// goes on. In any other drill the refusal fails the run.
	Fill bool
}

func (d *Drill) adr() bool { return d.Opts.Platform.Mode == pmem.ADR }

// tolerant selects the oracle from the spec, never from the caller:
// exact unless the drill's own damage may legitimately cost
// acknowledged data — an armed media plan, or quarantine repair of an
// ADR image (ADR's documented recover-then-fsck flow trades the torn
// segments' keys for consistency). ADR without repair is held to the
// exact contract on purpose: that is how the §II-C gap is shown.
func (d *Drill) tolerant() bool { return d.Media.armed() || d.adr() && d.Repair }

// Validate refuses the one spec no run could honour.
func (d *Drill) Validate() error {
	if d.CrashStep > 0 && d.Media.needsFrames() {
		return errors.New("bit flips and poison aim at live segment frames, which can only be listed at a quiescent point: a mid-operation crash step composes with torn write-backs only")
	}
	return nil
}

// Outcome is everything one Run observed.
type Outcome struct {
	Drill Drill

	Fired        bool       // CrashStep cut power mid-operation
	Steps        int64      // the target device's step count: the workload's total when !Fired, which sizes a sweep
	Refused      int        // writes refused with ErrNoSpace before the cut: returned, not acknowledged
	LinesLost    int        // cachelines the cut rolled back (always 0 under eADR)
	Injected     pmem.Stats // what the media plan applied
	MediaApplied bool       // a cut reached the plan at all

	// What the wire did, the breaker, and the acknowledged frames still
	// undelivered when the script ended (degraded-async writes: the
	// bound on what the replica can give back).
	Transport     repl.FaultStats
	Breaker       string
	SpillLost     int
	PromoteErr    error
	Epoch         uint64 // the survivor's, after promotion
	FencedDeposed bool   // the deposed primary's stale frame was refused with ErrNotPrimary

	RecoverErr error // RecoverAll's typed failure; nothing after it ran
	// DB is the system that was judged — recovered primary, promoted
	// replica, or the live database when no cut fired — left open.
	DB *spash.DB

	// CorruptReads counts pre-repair reads that surfaced typed
	// corruption: detection working, on drills that arm media.
	CorruptReads  int
	Fsck          *spash.FsckReport
	FsckExit      int // the report's spash-fsck exit code
	Unrecoverable int // segments repair gave up on
	LostListed    int // keys repair could only name as lost
	ReadRepair    *repl.RepairReport
	RangesFetched int
	KeysRestored  int

	// Verdict is the oracle's, after everything the drill could do;
	// Wrong and Untyped include what the pre-repair sweep saw.
	Verdict
	InvariantErr error
	Misplaced    int // records that decode cleanly but route to another segment
	Entries      int // live entries by full iteration, cross-checked against the counter
}

// Violations lists every way the outcome breaks its drill's contract.
func (o *Outcome) Violations() []string {
	d := &o.Drill
	var v []string
	note := func(bad bool, format string, a ...any) {
		if bad {
			v = append(v, fmt.Sprintf(format, a...))
		}
	}
	note(d.Media.armed() && !o.MediaApplied, "media faults armed but no power cut fired: nothing was injected")
	if o.RecoverErr != nil {
		// An ADR cut that tears or rolls back a metadata line can leave
		// the registry itself inconsistent — the documented gap — so a
		// typed failure ends a tolerant ADR trial quietly. Everywhere
		// else damage is confined to segment frames and recovery must
		// succeed.
		note(!(d.tolerant() && d.adr()), "recovery failed: %v", o.RecoverErr)
	}
	note(o.PromoteErr != nil, "promotion failed: %v", o.PromoteErr)
	if o.Fsck == nil {
		return v // recovery or promotion failed: nothing after it ran
	}
	note(o.Epoch > 0 && !o.FencedDeposed, "deposed primary's frame was not fenced")
	note(o.Untyped > 0, "%d reads failed with an untyped error", o.Untyped)
	note(o.Wrong > 0, "%d keys hold a value they were never given", o.Wrong)
	note(!d.tolerant() && !o.Fsck.Clean(), "fsck found %d damaged segments on undamaged media", len(o.Fsck.Faults))
	note(o.Unrecoverable > 0, "fsck left %d segments unrecoverable (exit %d)", o.Unrecoverable, o.FsckExit)
	note(o.InvariantErr != nil, "invariants violated: %v", o.InvariantErr)
	note(o.Misplaced > 0, "%d records silently misplaced", o.Misplaced)
	note(o.Unreadable > 0, "%d reads still corrupt at the end", o.Unreadable)
	note(o.Torn, "in-flight operation torn")
	note(o.StillLost > 0, "%d acknowledged keys lost without excuse", o.StillLost)
	note(o.LenMismatch, "entry count disagrees with the acknowledged model")
	return v
}

// Err is the first violation, or nil. It names the drill, crash step
// and media seed: Run of that row with those two set replays the trial.
func (o *Outcome) Err() error {
	v := o.Violations()
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("%s (crash step %d, media seed %d): %s", o.Drill.Name, o.Drill.CrashStep, o.Drill.Media.Seed, v[0])
}

// system is a database under test and the replica it ships to, if any.
type system struct {
	db   *spash.DB
	s    *spash.Session // the local writer (the primary's own session when there is one)
	rep  *repl.Replica
	ft   *repl.FaultyTransport
	prim *repl.Primary
}

// open is the one place a system is provisioned. The prober is always
// off: after an injected crash the primary wraps a dead pool, which a
// background drain must not touch — catch-up is driven explicitly.
func open(opts spash.Options, peer *Peer, retry repl.RetryPolicy) (*system, error) {
	db, err := spash.Open(opts)
	if err != nil {
		return nil, err
	}
	if peer == nil {
		return &system{db: db, s: db.Session()}, nil
	}
	opts.Replica = true
	rdb, err := spash.Open(opts)
	if err != nil {
		return nil, err
	}
	sys := &system{db: db}
	if sys.rep, err = repl.NewReplica(rdb); err != nil {
		return nil, err
	}
	sys.ft = repl.NewFaultyTransport(&repl.InProc{R: sys.rep}, peer.Faults)
	sys.prim, err = repl.NewPrimaryWith(db, sys.ft, repl.PrimaryOptions{Retry: retry, ProbeInterval: -1})
	if err != nil {
		return nil, err
	}
	sys.s = sys.prim.Session()
	return sys, nil
}

// convergeLimit bounds the catch-up passes a drill may spend: a correct
// implementation converges in a handful even at the chaos matrix's loss
// rates, so hitting the bound is a liveness failure, not bad luck.
const convergeLimit = 50

// converge drives the primary's catch-up until a drain and a finishing
// resync both come back clean, and reports the passes it took.
func converge(p *repl.Primary) (passes int, err error) {
	for passes < convergeLimit {
		passes++
		if _, err = p.TryDrain(); err != nil {
			continue
		}
		if err = p.Resync(); err == nil {
			break
		}
	}
	return passes, err
}

// drainEvery is how often a shipping script drives catch-up inline (a
// no-op while the breaker is closed), so long degraded stretches do not
// overflow the primary's bounded frame log into write sheds.
const drainEvery = 256

// run plays the drill's script: straight into the session without a
// peer; otherwise the unshipped prefix, the full sync, then the rest
// through the primary.
func (sys *system) run(d *Drill, m *model) error {
	n := len(d.Script)
	if sys.prim == nil {
		return play(sys.s, d.Script, 0, n, m)
	}
	lo := min(d.Peer.SyncAt, n)
	if lo > 0 {
		if err := play(sys.s, d.Script, 0, lo, m); err != nil {
			return err
		}
		if _, err := sys.prim.FullSync(); err != nil {
			return fmt.Errorf("full sync: %w", err)
		}
	}
	for i := lo; i < n; i++ {
		if (i-lo+1)%drainEvery == 0 {
			_, _ = sys.prim.TryDrain() // best effort; the breaker state is reported either way
		}
		if err := play(sys.prim, d.Script, i, i+1, m); err != nil {
			return err
		}
	}
	return nil
}

// restore is the power cut's other half. Power fails on every device
// at once, so each one still up — all of them at a quiescent cut, else
// the siblings of the target a fired plan already killed — takes a
// plain power cycle; then the database is recovered.
func restore(platforms []*pmem.Pool, fired bool, target int, opts spash.Options) (db *spash.DB, lost int, err error) {
	for i, p := range platforms {
		if !(fired && i == target) {
			lost += p.Crash()
		}
	}
	db, err = spash.RecoverAll(platforms, opts)
	return db, lost, err
}

// Run executes one drill. The error is infrastructure failure only (a
// spec Validate refuses, a workload or fsck error that is not the
// injected crash); contract violations land in the Outcome.
func Run(d Drill) (Outcome, error) {
	out := Outcome{Drill: d}
	if err := d.Validate(); err != nil {
		return out, fmt.Errorf("crashtest: %s: %w", d.Name, err)
	}
	sys, err := open(d.Opts, d.Peer, repl.RetryPolicy{})
	if err != nil {
		return out, err
	}
	platforms := sys.db.Platforms()
	target := platforms[d.Target]

	fp := &pmem.FaultPlan{CrashAtStep: d.CrashStep}
	target.ArmFault(fp)
	// The media plan is armed before the first op, so whichever cut
	// fires carries it — unless it needs the frame list, which exists
	// only at the quiescent cut (Validate refused the other case). A
	// torn-only plan must NOT list frames first: tearing consumes the
	// dirty lines still in the cache at the cut, and a registry scan
	// through the (small) cache would evict — and thereby write back —
	// every one of them, leaving nothing to tear.
	var mp *pmem.MediaFaultPlan
	if d.Media.armed() {
		mp = &pmem.MediaFaultPlan{Seed: d.Media.Seed, BitFlips: d.Media.BitFlips,
			TornLines: d.Media.TornLines, PoisonLines: d.Media.PoisonLines}
		if !d.Media.needsFrames() {
			target.ArmMediaFault(mp)
		}
	}

	m := newModel(d.Script)
	m.refusable = d.Fill
	werr := pmem.CatchCrash(func() error { return sys.run(&d, m) })
	target.DisarmFault()
	out.Fired, out.Steps, out.LinesLost, out.Refused = fp.Fired(), fp.Steps(), fp.LinesLost(), m.refused
	if werr != nil && !errors.Is(werr, pmem.ErrInjectedCrash) {
		return out, werr // genuine workload failure, not a crash
	}
	if sys.prim != nil {
		// Heal the wire and, while the primary's pool is alive, drain it:
		// the replica holds all it can before damage is assessed.
		sys.ft.Heal()
		if !out.Fired {
			_, _ = converge(sys.prim) // what did not converge is reported as SpillLost
		}
		st, _ := sys.prim.Breaker()
		out.Transport, out.Breaker, out.SpillLost = sys.ft.Stats(), st.String(), sys.prim.SpillDepth()
	}

	cut := out.Fired || d.PowerCycle
	db := sys.db
	switch {
	case d.Peer != nil && d.Peer.Promote:
		// The primary's cut is final and the survivor is the replica;
		// nothing on its devices was ever touched by a fault plan. The
		// primary acknowledges only after the replica accepted, and the
		// cut always lands in a local primitive, before the ship — so
		// the survivor holds exactly the acknowledged model, with no
		// in-flight ambiguity at all.
		db, m.inFlight = sys.rep.DB(), nil
		if !cut {
			break // the script completed: the replica must have converged on it
		}
		if out.Epoch, out.PromoteErr = sys.rep.Promote(); out.PromoteErr != nil {
			return out, nil
		}
		// The deposed primary limps back and ships one more frame (built
		// by hand — its own pool is dead — carrying its stale epoch 1):
		// the promoted node must refuse it.
		ferr := (&repl.InProc{R: sys.rep}).Ship(&repl.Frame{
			Kind: repl.FrameRecord, Epoch: 1, Seq: uint64(out.Steps),
			Shard: 0, Op: repl.RecInsert,
			Key: []byte("deposed"), Val: []byte("write"),
		})
		out.FencedDeposed = errors.Is(ferr, spash.ErrNotPrimary)
	case cut:
		if mp != nil && d.Media.needsFrames() {
			mp.Frames = db.Indexes()[d.Target].SegmentAddrs(sys.s.ShardCtx(d.Target))
			target.ArmMediaFault(mp)
		}
		var lost int
		db, lost, out.RecoverErr = restore(platforms, out.Fired, d.Target, d.Opts)
		out.LinesLost += lost
	}
	if mp != nil {
		target.DisarmMediaFault()
		out.Injected, out.MediaApplied = mp.Injected(), mp.Applied()
	}
	if out.RecoverErr != nil {
		return out, nil
	}
	out.DB = db
	s := db.Session()
	tolerant, adr := d.tolerant(), d.adr()

	var pre Verdict
	if mp != nil {
		// Detection: before repair, damage may surface only as typed
		// corruption. Absence is judged after repair, when the report
		// can excuse it.
		pre = judge(s, -1, m, tolerant, adr, nil)
		out.CorruptReads = pre.Unreadable
	}
	if out.Fsck, err = s.Fsck(d.Repair); err != nil {
		return out, fmt.Errorf("fsck: %w", err)
	}
	out.FsckExit, out.Unrecoverable, out.LostListed = out.Fsck.ExitCode(), len(out.Fsck.Failed), len(out.Fsck.LostKeys())
	excuse := out.Fsck
	if d.Peer != nil && !d.Peer.Promote {
		// A fresh wrapper: after a cut the script's one wraps the dead
		// pool. The peer is asked for every quarantined range, so
		// afterwards the repair report excuses nothing.
		p, err := repl.NewPrimary(db, &repl.InProc{R: sys.rep})
		if err != nil {
			return out, err
		}
		defer p.Close()
		if out.ReadRepair, err = p.ReadRepair(out.Fsck); err != nil {
			return out, fmt.Errorf("read-repair: %w", err)
		}
		out.RangesFetched, out.KeysRestored, excuse = out.ReadRepair.Ranges, out.ReadRepair.Restored, nil
	}

	out.Misplaced, out.InvariantErr = structure(db, s)
	if out.InvariantErr == nil {
		out.Entries, out.InvariantErr = census(db, s)
	}
	out.Verdict = judge(s, db.Len(), m, tolerant, adr, excuse)
	out.Wrong, out.Untyped = out.Wrong+pre.Wrong, out.Untyped+pre.Untyped
	return out, nil
}

// Result aggregates a sweep of one drill.
type Result struct {
	Drill      Drill
	TotalSteps int64 // the workload's step count (step sweeps)
	Trials     int
	Failures   []Outcome // trials with Violations

	// Sums over every trial.
	Refused       int
	Injected      pmem.Stats
	CorruptReads  int
	Repaired      int // trials where fsck performed repairs (exit 1)
	LostExcused   int
	LostListed    int
	RangesFetched int
	KeysRestored  int
}

func (r *Result) add(o *Outcome) {
	r.Trials++
	r.Refused += o.Refused
	r.Injected = r.Injected.Add(o.Injected)
	r.CorruptReads += o.CorruptReads
	r.LostExcused += o.LostExcused
	r.LostListed += o.LostListed
	r.RangesFetched += o.RangesFetched
	r.KeysRestored += o.KeysRestored
	if o.FsckExit == 1 {
		r.Repaired++
	}
	if len(o.Violations()) > 0 {
		o.DB = nil // a failure is kept for its evidence, not its 4 MB pools
		r.Failures = append(r.Failures, *o)
	}
}

// SweepSteps runs d at crash steps 1, 1+stride, 1+2*stride, … until a
// trial completes without firing (every step of the workload with
// stride 1). Infrastructure errors abort; violations fill Failures.
func SweepSteps(d Drill, stride int64) (Result, error) {
	res := Result{Drill: d}
	for d.CrashStep = 1; ; d.CrashStep += max(stride, 1) {
		o, err := Run(d)
		if err != nil {
			return res, fmt.Errorf("%s step %d: %w", d.Name, d.CrashStep, err)
		}
		res.add(&o)
		if !o.Fired {
			res.TotalSteps = o.Steps
			return res, nil
		}
	}
}

// SweepSeeds runs d once per media-fault seed.
func SweepSeeds(d Drill, seeds []uint64) (Result, error) {
	res := Result{Drill: d}
	for _, seed := range seeds {
		d.Media.Seed = seed
		o, err := Run(d)
		if err != nil {
			return res, fmt.Errorf("%s seed %d: %w", d.Name, d.Media.Seed, err)
		}
		res.add(&o)
	}
	return res, nil
}
