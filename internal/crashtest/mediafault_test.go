package crashtest

import (
	"testing"

	"spash/internal/pmem"
)

// mediaSeeds are the tier-1 seed set; the CI torture job runs more.
func mediaSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return seeds
}

// TestMediaSweepAllArms is the acceptance sweep: over the full
// {eADR, ADR} × {bitflip, torn, poison} matrix with seeded injection,
// no Get may ever return a silently wrong value, fsck -repair must
// bring the pool back to CheckInvariants-clean, and every lost key
// must be excused by the repair report.
func TestMediaSweepAllArms(t *testing.T) {
	seeds := mediaSeeds(4)
	if testing.Short() {
		seeds = mediaSeeds(1)
	}
	for _, arm := range MediaArms() {
		res := sweepSeeds(t, arm, seeds)
		t.Logf("%s: %d trials, injected {flips %d torn %d poison %d}, %d corrupt reads, %d repaired, %d lost-excused, %d failures",
			arm.Name, res.Trials, res.Injected.MediaBitFlips, res.Injected.MediaTornLines,
			res.Injected.MediaPoisonedLines, res.CorruptReads, res.Repaired, res.LostExcused, len(res.Failures))
		for i, tr := range res.Failures {
			if i >= 3 {
				t.Errorf("%s: … and %d more failures", arm.Name, len(res.Failures)-i)
				break
			}
			t.Errorf("%s: %v", arm.Name, tr.Err())
		}
	}
}

// TestMediaInjectionActuallyDamages guards the sweep against becoming
// vacuous: the damaging arms must inject their budget and the read
// path must actually observe typed corruption across the seed set.
func TestMediaInjectionActuallyDamages(t *testing.T) {
	seeds := mediaSeeds(3)
	for _, arm := range MediaArms() {
		if arm.Media.TornLines > 0 {
			continue // budget only tears what is dirty; checked below
		}
		res := sweepSeeds(t, arm, seeds)
		if res.Injected.MediaBitFlips == 0 && res.Injected.MediaPoisonedLines == 0 {
			t.Errorf("%s: sweep injected nothing", arm.Name)
		}
		if res.Repaired == 0 {
			t.Errorf("%s: no trial ever needed repair — detection is not being exercised", arm.Name)
		}
	}
}

// TestMediaTornEADRIsNoOp pins the paper's eADR claim: with reserve
// energy completing every write-back, the torn budget must inject
// zero lines and the trial must come back byte-clean (exit 0).
func TestMediaTornEADRIsNoOp(t *testing.T) {
	arm := ByName(MediaArms(), "eadr-torn")
	arm.Media.Seed = 42
	tr, err := Run(arm)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Injected.MediaTornLines != 0 {
		t.Fatalf("eADR tore %d lines", tr.Injected.MediaTornLines)
	}
	if tr.FsckExit != 0 || tr.CorruptReads != 0 {
		t.Fatalf("eADR torn trial not clean: exit %d, %d corrupt reads", tr.FsckExit, tr.CorruptReads)
	}
	if e := tr.Err(); e != nil {
		t.Fatal(e)
	}
}

// TestMediaTornADRInjects makes the complementary assertion: under
// ADR with a small write-back cache, dirty lines exist at the cut and
// the torn budget must actually tear some across a few seeds.
func TestMediaTornADRInjects(t *testing.T) {
	res := sweepSeeds(t, ByName(MediaArms(), "adr-torn"), mediaSeeds(3))
	if res.Injected.MediaTornLines == 0 {
		t.Fatal("ADR torn sweep never tore a line; the cache rollback hook is dead")
	}
	for _, tr := range res.Failures {
		t.Errorf("%v", tr.Err())
	}
}

// TestConcurrentCrashSmoke is the seeded multi-writer smoke: a few
// crash steps under eADR and ADR, each with 4 writers mid-flight
// through separate Ctxs. Tier-1-fast.
func TestConcurrentCrashSmoke(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
		name := "eadr"
		if mode == pmem.ADR {
			name = "adr"
		}
		for _, step := range []int64{200, 900, 2500} {
			tr, err := RunConcurrentTrial(mode, 4, 250, step)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if !tr.Fired {
				t.Fatalf("%s step %d: crash never fired (%d steps total)", name, step, tr.Steps)
			}
			if tr.Failed(mode) {
				t.Errorf("%s: %v", name, tr.Err(mode))
			}
			t.Logf("%s step %d: %d present, %d acked-lost", name, step, tr.Present, tr.LostAcked)
		}
	}
}

// TestConcurrentCompletesClean: without a firing crash the concurrent
// workload must land every key exactly.
func TestConcurrentCompletesClean(t *testing.T) {
	tr, err := RunConcurrentTrial(pmem.EADR, 4, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fired {
		t.Fatal("count-only plan fired")
	}
	if tr.Failed(pmem.EADR) || tr.Present != 4*150 || tr.LostAcked != 0 {
		t.Fatalf("clean concurrent run: present %d, lost %d, err %v", tr.Present, tr.LostAcked, tr.Err(pmem.EADR))
	}
}
