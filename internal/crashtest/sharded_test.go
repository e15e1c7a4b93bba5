package crashtest

import "testing"

// TestShardedScriptCompletes checks the seeded workload runs clean end
// to end against a 4-shard database and satisfies the oracle, the
// per-shard invariants and the placement check.
func TestShardedScriptCompletes(t *testing.T) {
	tr, err := Run(ByName(ShardedArms(), "eadr-4sh"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fired {
		t.Fatal("count-only plan fired")
	}
	if e := tr.Err(); e != nil {
		t.Fatalf("clean run violates oracle: %v", e)
	}
	if tr.Steps < 50 {
		t.Fatalf("shard 0 saw only %d steps; workload too small for a meaningful sweep", tr.Steps)
	}
	t.Logf("4 shards: %d shard-0 steps", tr.Steps)
}

// TestShardedSeededScriptDeterministic: the sweep's termination
// depends on the same seed producing the same step stream.
func TestShardedSeededScriptDeterministic(t *testing.T) {
	a, b := SeededScript(42, 200), SeededScript(42, 200)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShardedSweep is the multi-shard power-fault sweep: a power cut
// at strided persistence steps of shard 0's device, siblings cut
// quiescent, parallel recovery through spash.RecoverAll, then the
// oracle over the full cross-shard key universe. Under eADR every
// trial must come back clean.
func TestShardedSweep(t *testing.T) {
	stride := int64(5)
	if testing.Short() {
		stride = 47
	}
	res := sweepSteps(t, ByName(ShardedArms(), "eadr-4sh"), stride)
	for i, tr := range res.Failures {
		if i >= 5 {
			t.Errorf("… and %d more failures", len(res.Failures)-i)
			break
		}
		t.Errorf("%v", tr.Err())
	}
	t.Logf("%s: %d trials over %d shard-0 steps, %d failures",
		res.Drill.Name, res.Trials, res.TotalSteps, len(res.Failures))
}

// TestShardedSweepSingleShard pins the n=1 case to the same oracle:
// one shard must behave exactly like the monolithic database.
func TestShardedSweepSingleShard(t *testing.T) {
	if testing.Short() {
		t.Skip("single-shard sharded sweep skipped in -short")
	}
	res := sweepSteps(t, ByName(ShardedArms(), "eadr-1sh"), 41)
	for _, tr := range res.Failures {
		t.Errorf("%v", tr.Err())
	}
	t.Logf("%d trials over %d steps", res.Trials, res.TotalSteps)
}
