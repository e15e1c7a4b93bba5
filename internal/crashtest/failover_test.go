package crashtest

import "testing"

// TestFailoverScriptCompletes: the replicated workload runs clean end
// to end (count-only plan), and the replica converges on exactly the
// acknowledged state — the replication-correctness baseline the crash
// trials build on.
func TestFailoverScriptCompletes(t *testing.T) {
	tr, err := Run(FailoverArm())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fired {
		t.Fatal("count-only plan fired")
	}
	if e := tr.Err(); e != nil {
		t.Fatalf("clean replicated run violates oracle: %v", e)
	}
	if tr.Steps < 50 {
		t.Fatalf("shard 0 saw only %d steps; workload too small for a meaningful sweep", tr.Steps)
	}
	t.Logf("replicated 2 shards: %d shard-0 steps", tr.Steps)
}

// TestFailoverSweep is the tentpole drill: kill the primary at every
// strided persistence step, promote the replica, and hold the *strict*
// durability oracle (no in-flight tolerance — the primary acknowledges
// only after the replica accepted, and the cut always lands before the
// ship) against the survivor. The split-brain fence is checked on
// every fired trial.
func TestFailoverSweep(t *testing.T) {
	stride := int64(5)
	if testing.Short() {
		stride = 47
	}
	res := sweepSteps(t, FailoverArm(), stride)
	for i, tr := range res.Failures {
		if i >= 5 {
			t.Errorf("… and %d more failures", len(res.Failures)-i)
			break
		}
		t.Errorf("%v", tr.Err())
	}
	t.Logf("failover 2sh: %d trials over %d shard-0 steps, %d failures",
		res.Trials, res.TotalSteps, len(res.Failures))
}

// TestFailoverPromotionEpoch spot-checks one fired trial's promotion
// details: the survivor must land on epoch 2 and fence the deposed
// primary's stale frame.
func TestFailoverPromotionEpoch(t *testing.T) {
	arm := FailoverArm()
	arm.CrashStep = 25
	tr, err := Run(arm)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Fired {
		t.Fatal("crash at step 25 did not fire")
	}
	if e := tr.Err(); e != nil {
		t.Fatal(e)
	}
	if tr.Epoch != 2 {
		t.Fatalf("survivor epoch = %d, want 2", tr.Epoch)
	}
	if !tr.FencedDeposed {
		t.Fatal("deposed primary's stale frame was not fenced")
	}
}

// TestReadRepairMatrix runs the {bitflip,torn,poison} × read-repair
// matrix in both persistence modes. The contract extends the media
// sweeps: silent wrong values are never tolerated, and under eADR a
// healthy replica must bring back every key the local repair pass
// could only report lost — StillLost must hit zero.
func TestReadRepairMatrix(t *testing.T) {
	seeds := mediaSeeds(3)
	if testing.Short() {
		seeds = mediaSeeds(1)
	}
	lostListed := 0
	for _, arm := range ReadRepairArms() {
		res := sweepSeeds(t, arm, seeds)
		lostListed += res.LostListed
		t.Logf("%s: %d trials, injected {flips %d torn %d poison %d}, %d keys listed lost locally, %d ranges fetched, %d keys restored, %d failures",
			arm.Name, res.Trials, res.Injected.MediaBitFlips, res.Injected.MediaTornLines,
			res.Injected.MediaPoisonedLines, res.LostListed, res.RangesFetched, res.KeysRestored, len(res.Failures))
		for i, tr := range res.Failures {
			if i >= 3 {
				t.Errorf("%s: … and %d more failures", arm.Name, len(res.Failures)-i)
				break
			}
			t.Errorf("%s: %v", arm.Name, tr.Err())
		}
	}
	// The matrix must not be vacuous: across all arms and seeds the
	// local repair pass has to have reported real losses for the
	// replica to heal.
	if lostListed == 0 {
		t.Error("no trial listed any locally-lost keys; the read-repair matrix exercised nothing")
	}
}

// TestReadRepairHealsPoisonLosses pins the headline scenario: an eADR
// poisoned-segment trial where keys the local repair path lost come
// back via replica read-repair. Poison destroys the key bytes
// themselves, so the fsck report excuses these losses by quarantine
// *coverage* rather than by name (LostKeys stays empty) — the proof
// the keys were truly lost locally is that read-repair found them
// missing (it restores only absent keys) and StillLost hits zero only
// because the replica supplied them.
func TestReadRepairHealsPoisonLosses(t *testing.T) {
	arm := ByName(ReadRepairArms(), "eadr-poison")
	for _, seed := range mediaSeeds(5) {
		arm.Media.Seed = seed
		tr, err := Run(arm)
		if err != nil {
			t.Fatal(err)
		}
		if e := tr.Err(); e != nil {
			t.Fatal(e)
		}
		if tr.RangesFetched == 0 || tr.KeysRestored == 0 {
			continue // poison landed on no live keys for this seed
		}
		if tr.StillLost != 0 {
			t.Fatalf("seed %d: %d keys still lost after read-repair", seed, tr.StillLost)
		}
		t.Logf("seed %d: quarantine lost %d live keys (unnamed, excused by coverage); all restored from replica over %d ranges",
			seed, tr.KeysRestored, tr.RangesFetched)
		return
	}
	t.Fatal("no seed produced a quarantine with restorable losses")
}

// TestReadRepairRestoresNamedLosses is the by-name variant: bitflips
// leave key bytes readable, so the quarantine lists the lost keys in
// the report (LostKeys) and every listed key must come back.
func TestReadRepairRestoresNamedLosses(t *testing.T) {
	arm := ByName(ReadRepairArms(), "eadr-bitflip")
	for _, seed := range mediaSeeds(5) {
		arm.Media.Seed = seed
		tr, err := Run(arm)
		if err != nil {
			t.Fatal(err)
		}
		if e := tr.Err(); e != nil {
			t.Fatal(e)
		}
		if tr.LostListed == 0 {
			continue
		}
		if tr.KeysRestored < tr.LostListed {
			t.Fatalf("seed %d: %d keys listed lost but only %d restored", seed, tr.LostListed, tr.KeysRestored)
		}
		if tr.StillLost != 0 {
			t.Fatalf("seed %d: %d keys still lost after read-repair", seed, tr.StillLost)
		}
		t.Logf("seed %d: %d listed-lost keys restored from replica", seed, tr.LostListed)
		return
	}
	t.Fatal("no seed produced listed losses")
}
