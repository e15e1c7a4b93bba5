package spash

import (
	"errors"
	"strings"
	"testing"

	"spash/internal/pmem"
)

func TestReplicaRoleAndPromotion(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 2, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.IsReplica() {
		t.Fatal("Options.Replica not honoured")
	}
	if db.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", db.Epoch())
	}
	s := db.Session()
	defer s.Close()
	err = s.Insert([]byte("k"), []byte("v"))
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("replica Insert: %v", err)
	}
	var re *ReplicationError
	if !errors.As(err, &re) || re.Op != "insert" || re.Shard < 0 || re.Shard >= 2 {
		t.Fatalf("replication error detail: %+v", re)
	}
	// Reads stay available on a replica.
	if _, _, err := s.Get([]byte("k"), nil); err != nil {
		t.Fatalf("replica Get: %v", err)
	}
	// The applier session bypasses the fence.
	as := db.ApplierSession()
	defer as.Close()
	if err := as.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("applier Insert: %v", err)
	}

	epoch, err := db.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || db.IsReplica() {
		t.Fatalf("promote: epoch=%d replica=%v", epoch, db.IsReplica())
	}
	if err := s.Insert([]byte("k2"), []byte("v")); err != nil {
		t.Fatalf("Insert after promotion: %v", err)
	}
	// Promoting a primary is refused, typed.
	if _, err := db.Promote(); err == nil {
		t.Fatal("promoting a primary succeeded")
	} else if !errors.As(err, &re) || re.Op != "promote" {
		t.Fatalf("promote-primary error: %v", err)
	}
}

func TestPromotionEpochSurvivesRecovery(t *testing.T) {
	db, err := Open(Options{Platform: smallPlatform(), Shards: 2, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	as := db.ApplierSession()
	if err := as.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	as.Close()
	if _, err := db.Promote(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	platforms := db.Platforms()
	db.Crash()
	db2, err := RecoverAll(platforms, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", db2.Epoch())
	}
	if db2.IsReplica() {
		t.Fatal("recovered without Options.Replica but came back a replica")
	}
}

// TestDescribeErrorReplication pins DescribeError's advice: where to
// send a write a replica refused, and how to repair media corruption.
func TestDescribeErrorReplication(t *testing.T) {
	corrupt := &CorruptionError{Seg: 0x4000, Bucket: 2, Cause: errors.New("seal mismatch")}
	if d := DescribeError(corrupt); !strings.Contains(d, "spash-fsck -repair") || strings.Contains(strings.ToLower(d), "scrub") {
		t.Fatalf("DescribeError(CorruptionError) = %q", d)
	}
	notPrimary := &ReplicationError{Op: "insert", Shard: 1, Epoch: 3, Err: ErrNotPrimary}
	if d := DescribeError(notPrimary); !strings.Contains(d, "retry against the current primary") {
		t.Fatalf("DescribeError(ErrNotPrimary) = %q", d)
	}
	lag := &ReplicationError{Op: "promote", Shard: -1, Epoch: 1, Err: ErrReplicaLag}
	if d := DescribeError(lag); !strings.Contains(d, "drain the apply stream") {
		t.Fatalf("DescribeError(ErrReplicaLag) = %q", d)
	}
	other := &ReplicationError{Op: "fetch", Shard: 0, Epoch: 1, Err: errors.New("wire down")}
	if d := DescribeError(other); d != other.Error() {
		t.Fatalf("DescribeError(other) = %q", d)
	}
}

// TestCrashLostLinesPerShard: DB.Crash reports the total rolled-back
// cachelines, and each device's stats break the loss down per shard.
func TestCrashLostLinesPerShard(t *testing.T) {
	cfg := smallPlatform()
	cfg.Mode = pmem.ADR
	db, err := Open(Options{Platform: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	for i := uint64(0); i < 4000; i++ {
		if err := s.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	total := db.Crash()
	if total <= 0 {
		t.Fatal("ADR crash after a write burst rolled back nothing; the breakdown test is vacuous")
	}
	st := db.Stats()
	var sum uint64
	perShard := make([]uint64, len(st.Shards))
	for i, sh := range st.Shards {
		perShard[i] = sh.Memory.CrashLostLines
		sum += sh.Memory.CrashLostLines
	}
	if sum != uint64(total) {
		t.Fatalf("per-shard CrashLostLines sum to %d, Crash reported %d (%v)", sum, total, perShard)
	}
	if st.Memory.CrashLostLines != uint64(total) {
		t.Fatalf("aggregate CrashLostLines = %d, want %d", st.Memory.CrashLostLines, total)
	}
	// The same breakdown must flow through the observability snapshots.
	var obsSum uint64
	for _, snap := range db.ObsSnapshots() {
		obsSum += snap.Mem.CrashLostLines
	}
	if obsSum != uint64(total) {
		t.Fatalf("ObsSnapshots CrashLostLines sum to %d, want %d", obsSum, total)
	}

	// eADR control: visibility is durability, a crash loses nothing.
	edb, err := Open(Options{Platform: smallPlatform(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	es := edb.Session()
	for i := uint64(0); i < 1000; i++ {
		if err := es.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lost := edb.Crash(); lost != 0 {
		t.Fatalf("eADR crash lost %d lines", lost)
	}
	for i, sh := range edb.Stats().Shards {
		if sh.Memory.CrashLostLines != 0 {
			t.Fatalf("eADR shard %d reports %d lost lines", i, sh.Memory.CrashLostLines)
		}
	}
}
