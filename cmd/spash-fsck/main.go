// Command spash-fsck is the offline consistency checker and repair
// tool, and the command line of the drill engine (internal/crashtest):
// the flags become one crashtest.Drill, crashtest.Run executes it, and
// the outcome is printed and mapped to an exit status. The drill builds
// an index from a seeded workload, optionally cuts power — at a
// quiescent point (-crash) or mid-operation at an exact
// persistence-primitive step (-crashstep N) — with seeded media damage
// riding the cut (-bitflips, -torn, -poison), then recovers and
// verifies: segment seals and record CRCs (-checksums), the full
// structural invariant scan, an entry-count cross-check and the
// durability oracle against what the workload was acknowledged.
// With -repair, damaged segments are quarantined and rebuilt from
// their salvageable entries, and the report lists every key lost.
// With -repair-from replica an in-process replica is fed by the
// workload (every write ships before it is acknowledged), and after
// the local repair pass the quarantined ranges are healed from that
// peer: keys the rebuild could only report as lost are fetched back
// over the replication transport (read_repair section in the JSON
// report).
//
// The run is reproducible: workload randomness comes from -seed and
// media damage from -faultseed. With -report the full repair report is
// written as one JSON document. -torn composes with -crashstep
// (write-backs torn mid-operation); -bitflips and -poison aim at the
// live segment frames, which can only be listed at a quiescent cut, so
// that combination is refused.
//
// Exit status:
//
//	0  clean — no damage found
//	1  damage found and fully repaired (-repair)
//	2  damage remains (repair disabled or impossible), the drill's
//	   contract was violated, or the check itself failed
//
// Usage:
//
//	spash-fsck [-records 100000] [-churn 3] [-seed 1] [-mode eadr|adr]
//	           [-crash] [-crashstep N] [-shards N]
//	           [-checksums] [-bitflips N] [-torn N] [-poison N] [-faultseed 1]
//	           [-repair] [-repair-from replica] [-report FILE.json]
//
// With -shards N the database is partitioned onto N devices. Injected
// faults (crashstep, media damage) target shard 0's device — the
// remaining shards see a plain power cut — and the check then covers
// every shard: parallel recovery, a merged segment-verification
// report, per-shard structural invariants and the global entry-count
// cross-check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"spash"
	"spash/internal/crashtest"
	"spash/internal/repl"
)

// report is the -report JSON document.
type report struct {
	Schema    string `json:"schema"`
	Mode      string `json:"mode"`
	Shards    int    `json:"shards"`
	Seed      int64  `json:"seed"`
	FaultSeed uint64 `json:"faultseed"`
	Checksums bool   `json:"checksums"`
	Injected  struct {
		BitFlips    uint64 `json:"bitflips"`
		TornLines   uint64 `json:"torn_lines"`
		PoisonLines uint64 `json:"poison_lines"`
	} `json:"injected"`
	Fsck       *spash.FsckReport  `json:"fsck"`
	ReadRepair *repl.RepairReport `json:"read_repair,omitempty"`
	Chaos      *chaosInfo         `json:"chaos,omitempty"`
	Invariant  string             `json:"invariant_error,omitempty"`
	Misplaced  int                `json:"misplaced"`
	Entries    int                `json:"entries"`
	Exit       int                `json:"exit"`
}

// chaosInfo summarises the -chaos ship path: what the faulty
// transport did and what the delivery hardening left behind. Frames
// still in the spill queue at the crash are acknowledged
// degraded-async writes the replica never received — the bound on
// what replica-backed read-repair can restore.
type chaosInfo struct {
	Stats     repl.FaultStats `json:"stats"`
	Breaker   string          `json:"breaker"`
	SpillLost int             `json:"spill_lost"`
}

// config is what the flags say beyond the drill itself.
type config struct {
	records, churn int
	seed           int64
	mode           string
	chaos          bool
	reportPath     string
}

// parse turns the command line into the drill it describes.
func parse(args []string) (crashtest.Drill, config, error) {
	fs := flag.NewFlagSet("spash-fsck", flag.ContinueOnError)
	var cfg config
	fs.IntVar(&cfg.records, "records", 100000, "records inserted")
	fs.IntVar(&cfg.churn, "churn", 3, "delete/reinsert rounds before checking")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's randomness (reproducible torture runs)")
	fs.StringVar(&cfg.mode, "mode", "eadr", "persistence domain of the simulated device (eadr, adr)")
	poolMB := fs.Int("poolmb", 1024, "simulated PM pool size in MB")
	cacheKB := fs.Int("cachekb", 8192, "simulated CPU cache size in KB (small values force evictions, making ADR torture bite)")
	crash := fs.Bool("crash", true, "power-cycle the device (quiescent) before checking")
	crashStep := fs.Int64("crashstep", 0,
		"inject a power failure before the N-th persistence-primitive step of the workload (0 = disabled)")
	checksums := fs.Bool("checksums", true, "maintain + verify per-segment checksum seals")
	bitFlips := fs.Int("bitflips", 0, "single-bit flips injected into live segment frames at the crash")
	torn := fs.Int("torn", 0, "max dirty cachelines torn (old/new words interleaved) at an ADR crash")
	poison := fs.Int("poison", 0, "XPLines poisoned (reads become machine checks) at the crash")
	faultSeed := fs.Uint64("faultseed", 1, "seed for media-fault placement")
	repair := fs.Bool("repair", false, "quarantine and rebuild damaged segments")
	repairFrom := fs.String("repair-from", "",
		"heal quarantine losses from a peer after -repair (only value: replica — an in-process replica the workload ships to)")
	chaosRate := fs.Float64("chaos", 0,
		"inject seeded transport faults (drop/dup/reorder at this aggregate rate) into the replica ship path; requires -repair-from replica")
	fs.StringVar(&cfg.reportPath, "report", "", "write the repair report as JSON to this file")
	shards := fs.Int("shards", 1, "shard count (faults target shard 0; checks cover every shard)")
	if err := fs.Parse(args); err != nil {
		return crashtest.Drill{}, cfg, err
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"records", int64(cfg.records)}, {"churn", int64(cfg.churn)},
		{"bitflips", int64(*bitFlips)}, {"torn", int64(*torn)}, {"poison", int64(*poison)},
		{"crashstep", *crashStep}, {"poolmb", int64(*poolMB)}, {"cachekb", int64(*cacheKB)},
	} {
		if f.v < 0 {
			return crashtest.Drill{}, cfg, fmt.Errorf("-%s %d is negative", f.name, f.v)
		}
	}
	if !(*chaosRate >= 0 && *chaosRate <= 1) {
		return crashtest.Drill{}, cfg, fmt.Errorf("-chaos %g is outside [0, 1]", *chaosRate)
	}

	platform := spash.DefaultPlatform()
	platform.PoolSize = uint64(*poolMB) << 20
	platform.CacheSize = uint64(*cacheKB) << 10
	switch cfg.mode {
	case "eadr":
		platform.Mode = spash.EADR
	case "adr":
		platform.Mode = spash.ADR
	default:
		return crashtest.Drill{}, cfg, fmt.Errorf("unknown -mode %q (want eadr or adr)", cfg.mode)
	}
	d := crashtest.Drill{
		Name:   "spash-fsck",
		Opts:   spash.Options{Platform: platform, Shards: *shards},
		Script: crashtest.ChurnScript(cfg.records, cfg.churn, cfg.seed),
		// Injected faults aim at shard 0's device; -crashstep, when
		// given, is the only cut.
		CrashStep:  *crashStep,
		PowerCycle: *crash && *crashStep == 0,
		Media: crashtest.Media{Seed: *faultSeed, BitFlips: *bitFlips,
			TornLines: *torn, PoisonLines: *poison},
		Repair: *repair,
	}
	d.Opts.Index.Checksums = *checksums
	cfg.chaos = *chaosRate > 0
	switch {
	case *repairFrom == "replica":
		d.Peer = &crashtest.Peer{Faults: repl.FaultSpec{Seed: cfg.seed,
			Drop: *chaosRate / 2, Dup: *chaosRate / 4, Reorder: *chaosRate / 4}}
	case *repairFrom != "":
		return d, cfg, fmt.Errorf("unknown -repair-from %q (want replica)", *repairFrom)
	case cfg.chaos:
		return d, cfg, errors.New("-chaos requires -repair-from replica")
	}
	return d, cfg, d.Validate()
}

func main() {
	d, cfg, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spash-fsck: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("building: %d records, %d churn rounds (seed %d, %s, checksums %v, %d shards)...\n",
		cfg.records, cfg.churn, cfg.seed, cfg.mode, d.Opts.Index.Checksums, d.Opts.Shards)
	out, err := crashtest.Run(d)
	if err != nil {
		fail(err)
	}
	os.Exit(render(&out, cfg))
}

// render prints the outcome, writes the -report document and returns
// the exit status.
func render(out *crashtest.Outcome, cfg config) int {
	d := &out.Drill
	rep := report{Schema: "spash-fsck/v1", Mode: cfg.mode, Shards: out.DB.Shards(), Seed: cfg.seed,
		FaultSeed: d.Media.Seed, Checksums: d.Opts.Index.Checksums}
	if cfg.chaos {
		rep.Chaos = &chaosInfo{Stats: out.Transport, Breaker: out.Breaker, SpillLost: out.SpillLost}
		fmt.Printf("chaos transport: %+v; breaker %s, %d acknowledged frame(s) undeliverable\n",
			rep.Chaos.Stats, rep.Chaos.Breaker, rep.Chaos.SpillLost)
	}
	switch {
	case out.Fired:
		fmt.Printf("fault injection: power cut at step %d (mid-operation, %d cachelines lost)\n",
			d.CrashStep, out.LinesLost)
	case d.CrashStep > 0:
		fmt.Printf("fault injection: step %d beyond workload's %d steps; no crash fired\n",
			d.CrashStep, out.Steps)
	case d.PowerCycle:
		fmt.Printf("power cycle: %d cachelines lost\n", out.LinesLost)
	}
	inj := out.Injected
	rep.Injected.BitFlips, rep.Injected.TornLines, rep.Injected.PoisonLines =
		inj.MediaBitFlips, inj.MediaTornLines, inj.MediaPoisonedLines
	if out.MediaApplied {
		fmt.Printf("media faults injected: %d bit flips, %d torn lines, %d poisoned XPLines (faultseed %d)\n",
			inj.MediaBitFlips, inj.MediaTornLines, inj.MediaPoisonedLines, d.Media.Seed)
	}
	if out.RecoverErr != nil {
		fail(fmt.Errorf("recovery: %w", out.RecoverErr))
	}

	fsck := out.Fsck
	rep.Fsck = fsck
	fmt.Print("verifying segments... ")
	switch {
	case fsck.Clean():
		fmt.Printf("ok (%d segments)\n", fsck.Segments)
	case d.Repair:
		fmt.Printf("%d damaged of %d segments; %d repaired, %d unrecoverable\n",
			len(fsck.Faults), fsck.Segments, len(fsck.Repairs), len(fsck.Failed))
		salvaged, dropped := 0, 0
		for i := range fsck.Repairs {
			salvaged += fsck.Repairs[i].Salvaged
			dropped += fsck.Repairs[i].Dropped
		}
		fmt.Printf("repair: %d entries salvaged, %d dropped (%d lost keys identified)\n",
			salvaged, dropped, out.LostListed)
	default:
		fmt.Printf("%d damaged of %d segments (run with -repair to rebuild)\n",
			len(fsck.Faults), fsck.Segments)
	}
	for i := range fsck.Faults {
		f := &fsck.Faults[i]
		fmt.Printf("  fault: segment %#x (prefix %#x depth %d): %s\n", f.Seg, f.Prefix, f.Depth, f.Cause)
	}
	if rr := out.ReadRepair; rr != nil && len(fsck.Repairs) > 0 {
		rep.ReadRepair = rr
		fmt.Printf("read-repair from replica... %d ranges fetched (%d pairs offered), %d lost keys restored\n",
			rr.Ranges, rr.Fetched, rr.Restored)
	}

	rep.Misplaced, rep.Entries = out.Misplaced, out.Entries
	if out.InvariantErr != nil {
		fmt.Printf("checking structural invariants... FAIL: %s\n", spash.DescribeError(out.InvariantErr))
		rep.Invariant = out.InvariantErr.Error()
	} else {
		fmt.Printf("checking structural invariants... ok\nentry count cross-check: %d entries ok\n", out.Entries)
	}
	if out.Misplaced > 0 {
		fmt.Printf("silent misplacement: %d records route to the wrong segment\n", out.Misplaced)
	}

	violations := out.Violations()
	rep.Exit = fsck.ExitCode()
	if len(violations) > 0 {
		rep.Exit = 2
	}
	if cfg.reportPath != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.reportPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fail(fmt.Errorf("writing report: %w", err))
		}
		fmt.Printf("report: %s\n", cfg.reportPath)
	}

	st := out.DB.Stats()
	fmt.Printf("\nsummary: %d entries in %d segments (load factor %.3f)\n",
		st.Index.Entries, st.Index.Segments, out.DB.LoadFactor())
	switch {
	case len(violations) > 0:
		fmt.Printf("\nspash-fsck: FAIL: %s\n", violations[0])
	case rep.Exit == 0:
		fmt.Println("\nspash-fsck: PASS (clean)")
	case rep.Exit == 1:
		fmt.Println("\nspash-fsck: REPAIRED")
	default:
		fmt.Println("\nspash-fsck: FAIL: damage remains")
	}
	return rep.Exit
}

func fail(err error) {
	fmt.Printf("spash-fsck: FAIL: %s\n", spash.DescribeError(err))
	os.Exit(2)
}
