package repl_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"spash"
	"spash/internal/core"
	"spash/internal/pmem"
	"spash/internal/repl"
)

func testOpts(n int) spash.Options {
	return spash.Options{
		Shards: n,
		Platform: pmem.Config{
			PoolSize:  uint64(n) * (4 << 20),
			CacheSize: 64 << 10,
			Mode:      pmem.EADR,
		},
		Index: core.Config{InitialDepth: 1, Concurrency: core.ModeHTM},
	}
}

// pair opens a primary and a replica wired over the in-process
// transport with default hardening options.
func pair(t *testing.T, n int) (*repl.Primary, *repl.Replica) {
	t.Helper()
	return pairOver(t, n, repl.PrimaryOptions{},
		func(inner repl.Transport) repl.Transport { return inner })
}

func key64(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

func TestShipApplyMirrors(t *testing.T) {
	prim, rep := pair(t, 2)
	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := prim.Insert(key64(i), key64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i += 2 {
		found, err := prim.Update(key64(i), key64(i*5))
		if err != nil || !found {
			t.Fatalf("update %d: %v %v", i, found, err)
		}
	}
	for i := uint64(0); i < n; i += 5 {
		found, err := prim.Delete(key64(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	// Misses are not shipped and must not disturb the stream.
	if found, err := prim.Update(key64(n+1), key64(1)); err != nil || found {
		t.Fatalf("update miss: %v %v", found, err)
	}
	if found, err := prim.Delete(key64(n + 2)); err != nil || found {
		t.Fatalf("delete miss: %v %v", found, err)
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("lag = %d after synchronous shipping", lag)
	}

	rs := rep.DB().Session()
	defer rs.Close()
	for i := uint64(0); i < n; i++ {
		want, present := key64(i*3), true
		if i%2 == 0 {
			want = key64(i * 5)
		}
		if i%5 == 0 {
			present = false
		}
		got, found, err := rs.Get(key64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if found != present || (found && string(got) != string(want)) {
			t.Fatalf("key %d: found=%v got=%q want present=%v %q", i, found, got, present, want)
		}
	}
	if pl, rl := prim.DB().Len(), rep.DB().Len(); pl != rl {
		t.Fatalf("primary holds %d keys, replica %d", pl, rl)
	}
}

// Updates between size classes and between inline and out-of-line values
// need a fresh record on the primary; they still report success and ship,
// and the replica converges on the same values.
func TestRecordChangingUpdatesMirror(t *testing.T) {
	prim, rep := pair(t, 2)
	sized := func(n int) func(i int) []byte {
		return func(i int) []byte { return []byte(fmt.Sprintf("%0*d", n, i)) }
	}
	inline := func(i int) []byte { return key64(uint64(i)) }
	vals := []func(i int) []byte{sized(24), sized(72), inline, sized(300), sized(24)}
	const n = 200
	for i := 0; i < n; i++ {
		if err := prim.Insert(key64(uint64(i)), vals[0](i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, val := range vals[1:] {
		for i := 0; i < n; i++ {
			if found, err := prim.Update(key64(uint64(i)), val(i)); err != nil || !found {
				t.Fatalf("update of key %d to %d bytes: %v %v", i, len(val(i)), found, err)
			}
		}
	}
	rs := rep.DB().Session()
	defer rs.Close()
	last := vals[len(vals)-1]
	for i := 0; i < n; i++ {
		got, found, err := rs.Get(key64(uint64(i)), nil)
		if err != nil || !found || string(got) != string(last(i)) {
			t.Fatalf("replica key %d: %q %v %v", i, got, found, err)
		}
	}
}

func TestReplicaWriteFence(t *testing.T) {
	_, rep := pair(t, 2)
	s := rep.DB().Session()
	defer s.Close()

	err := s.Insert(key64(1), key64(2))
	if !errors.Is(err, spash.ErrNotPrimary) {
		t.Fatalf("replica Insert: %v, want ErrNotPrimary", err)
	}
	var re *spash.ReplicationError
	if !errors.As(err, &re) || re.Op != "insert" || re.Epoch != 1 {
		t.Fatalf("replica Insert error detail: %+v", re)
	}
	if _, err := s.Update(key64(1), key64(2)); !errors.Is(err, spash.ErrNotPrimary) {
		t.Fatalf("replica Update: %v", err)
	}
	if _, err := s.Delete(key64(1)); !errors.Is(err, spash.ErrNotPrimary) {
		t.Fatalf("replica Delete: %v", err)
	}

	// Batches: writes fail typed positionally, reads still execute.
	if err := rep.Apply(&repl.Frame{Kind: repl.FrameRecord, Epoch: 1, Seq: 1,
		Shard: int(spash.ShardOf(key64(7), 2)), Op: repl.RecInsert,
		Key: key64(7), Val: key64(70)}); err != nil {
		t.Fatal(err)
	}
	ops := []spash.Op{
		{Kind: spash.OpInsert, Key: key64(8), Value: key64(80)},
		{Kind: spash.OpGet, Key: key64(7)},
		{Kind: spash.OpDelete, Key: key64(7)},
	}
	s.ExecBatch(ops)
	if !errors.Is(ops[0].Err, spash.ErrNotPrimary) || !errors.Is(ops[2].Err, spash.ErrNotPrimary) {
		t.Fatalf("batch writes: %v / %v", ops[0].Err, ops[2].Err)
	}
	if ops[1].Err != nil || !ops[1].Found || string(ops[1].Result) != string(key64(70)) {
		t.Fatalf("batch read on replica: %+v", ops[1])
	}
}

func TestEpochFencingAfterPromote(t *testing.T) {
	prim, rep := pair(t, 2)
	for i := uint64(0); i < 100; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || rep.DB().Epoch() != 2 || rep.DB().IsReplica() {
		t.Fatalf("promote: epoch=%d IsReplica=%v", epoch, rep.DB().IsReplica())
	}
	// The deposed primary keeps shipping at its stale epoch: fenced.
	err = prim.Insert(key64(200), key64(200))
	if !errors.Is(err, spash.ErrNotPrimary) {
		t.Fatalf("deposed ship: %v, want ErrNotPrimary", err)
	}
	// The survivor takes client writes now.
	s := rep.DB().Session()
	defer s.Close()
	if err := s.Insert(key64(300), key64(300)); err != nil {
		t.Fatal(err)
	}
	// Promoting the survivor again is an error (already primary).
	if _, err := rep.DB().Promote(); err == nil {
		t.Fatal("second promote succeeded")
	}
}

func TestPromoteRefusesLag(t *testing.T) {
	prim, rep := pair(t, 2)
	rep.Pause()
	for i := uint64(0); i < 50; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lag := rep.Lag(); lag != 50 {
		t.Fatalf("lag = %d, want 50", lag)
	}
	if _, err := rep.Promote(); !errors.Is(err, spash.ErrReplicaLag) {
		t.Fatalf("promote over lag: %v, want ErrReplicaLag", err)
	}
	if err := rep.Resume(); err != nil {
		t.Fatal(err)
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("lag after resume = %d", lag)
	}
	if _, err := rep.Promote(); err != nil {
		t.Fatalf("promote after drain: %v", err)
	}
	if got := rep.DB().Len(); got != 50 {
		t.Fatalf("survivor holds %d keys, want 50", got)
	}
}

func mkRecord(seq uint64, i uint64) *repl.Frame {
	return &repl.Frame{Kind: repl.FrameRecord, Epoch: 1, Seq: seq,
		Shard: int(spash.ShardOf(key64(i), 2)), Op: repl.RecInsert,
		Key: key64(i), Val: key64(i)}
}

func TestSequenceGapBuffersInReorderWindow(t *testing.T) {
	_, rep := pair(t, 2)
	if err := rep.Apply(mkRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Ahead of the cursor: buffered, acked, not applied yet.
	if err := rep.Apply(mkRecord(3, 3)); err != nil {
		t.Fatalf("ahead-of-cursor frame: %v, want buffered ack", err)
	}
	if lag := rep.Lag(); lag != 1 {
		t.Fatalf("lag with one buffered frame = %d, want 1", lag)
	}
	if _, found, _ := rep.DB().Session().Get(key64(3), nil); found {
		t.Fatal("buffered frame applied before its gap filled")
	}
	// The gap frame arrives: both it and the buffered one apply.
	if err := rep.Apply(mkRecord(2, 2)); err != nil {
		t.Fatalf("gap-filling frame: %v", err)
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("lag after gap filled = %d, want 0", lag)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, found, err := rep.DB().Session().Get(key64(i), nil); err != nil || !found {
			t.Fatalf("key %d after window drain: found=%v err=%v", i, found, err)
		}
	}
	if got := rep.AppliedSeq(); got != 3 {
		t.Fatalf("applied cursor = %d, want 3", got)
	}
}

func TestSequenceGapDetected(t *testing.T) {
	// Frames parked ahead of a gap fill the pending log; past its bound
	// a gap is refused typed, and the missing frame still applies
	// cleanly — draining everything that was parked behind it.
	_, rep := pair(t, 2)
	if err := rep.Apply(mkRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	const parked = repl.ReplicaLogFrames
	for seq := uint64(3); seq < 3+parked; seq++ { // skipped seq 2
		if err := rep.Apply(mkRecord(seq, seq)); err != nil {
			t.Fatalf("parking frame %d: %v", seq, err)
		}
	}
	err := rep.Apply(mkRecord(3+parked, 3+parked))
	if !errors.Is(err, spash.ErrReplicaLag) {
		t.Fatalf("gap past the log bound: %v, want ErrReplicaLag", err)
	}
	if got := rep.AppliedSeq(); got != 1 {
		t.Fatalf("applied cursor = %d with the gap open, want 1", got)
	}
	if err := rep.Apply(mkRecord(2, 2)); err != nil {
		t.Fatalf("in-order frame after gap report: %v", err)
	}
	if lag, got := rep.Lag(), rep.AppliedSeq(); lag != 0 || got != 2+parked {
		t.Fatalf("after the gap filled: lag %d applied %d, want 0 and %d", lag, got, 2+parked)
	}
}

func TestFullSyncSeedsReplica(t *testing.T) {
	prim, rep := pair(t, 2)
	// Populate locally without shipping (the state that exists before a
	// replica is attached).
	s := prim.Session()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(key64(i), key64(i*7)); err != nil {
			t.Fatal(err)
		}
	}
	shipped, err := prim.FullSync()
	if err != nil {
		t.Fatal(err)
	}
	if shipped != n {
		t.Fatalf("FullSync shipped %d pairs, want %d", shipped, n)
	}
	if got := rep.DB().Len(); got != n {
		t.Fatalf("replica holds %d keys, want %d", got, n)
	}
	rs := rep.DB().Session()
	defer rs.Close()
	for i := uint64(0); i < n; i += 97 {
		v, ok, err := rs.Get(key64(i), nil)
		if err != nil || !ok || string(v) != string(key64(i*7)) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	// Steady-state shipping continues after the sync.
	if err := prim.Insert(key64(n), key64(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := rs.Get(key64(n), nil); !ok {
		t.Fatal("record shipped after FullSync missing on replica")
	}
}

func TestServeBoundsAndFetch(t *testing.T) {
	prim, rep := pair(t, 2)
	for i := uint64(0); i < 100; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rep.Serve(repl.FetchReq{Shard: 9}); err == nil {
		t.Fatal("fetch of nonexistent shard succeeded")
	}
	kvs, err := rep.Serve(repl.FetchReq{Shard: 0, Prefix: 0, Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := uint64(0); i < 100; i++ {
		if spash.ShardOf(key64(i), 2) == 0 {
			want++
		}
	}
	if len(kvs) != want {
		t.Fatalf("fetched %d pairs from shard 0, want %d", len(kvs), want)
	}
}

func TestRejoinResumesApplying(t *testing.T) {
	prim, rep := pair(t, 2)
	for i := uint64(0); i < 200; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The replica node power-cycles; under eADR nothing is lost and it
	// recovers in place through the standalone recovery path.
	if err := rep.Rejoin(testOpts(2)); err != nil {
		t.Fatal(err)
	}
	if !rep.DB().IsReplica() {
		t.Fatal("rejoined replica lost its role")
	}
	if got := rep.DB().Len(); got != 200 {
		t.Fatalf("rejoined replica holds %d keys, want 200", got)
	}
	// Note: a real rejoin would resync the sequence cursor from the
	// primary; the in-process stream just continues.
	for i := uint64(200); i < 250; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.DB().Len(); got != 250 {
		t.Fatalf("replica holds %d keys after rejoin stream, want 250", got)
	}
}

func TestReadRepairRestoresQuarantineLosses(t *testing.T) {
	// A poisoned segment on the primary: local fsck -repair quarantines
	// it and reports lost keys; replica-backed read-repair restores
	// them from the peer.
	opts := testOpts(2)
	opts.Index.Checksums = true
	pdb, err := spash.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Replica = true
	rdb, err := spash.Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep, err := repl.NewReplica(rdb)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	prim, err := repl.NewPrimary(pdb, &repl.InProc{R: rep})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := prim.Insert(key64(i), key64(i*3)); err != nil {
			t.Fatal(err)
		}
	}

	// Poison a few segment lines on the primary's shard 0 and crash it.
	s := prim.Session()
	frames := pdb.Indexes()[0].SegmentAddrs(s.ShardCtx(0))
	if len(frames) == 0 {
		t.Fatal("no segments to poison")
	}
	mp := &pmem.MediaFaultPlan{Seed: 42, PoisonLines: 2, Frames: frames}
	platforms := pdb.Platforms()
	platforms[0].ArmMediaFault(mp)
	pdb.Crash()
	platforms[0].DisarmMediaFault()

	pdb2, err := spash.RecoverAll(platforms, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pdb2.Close()
	s2 := pdb2.Session()
	defer s2.Close()
	frep, err := s2.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	lost := frep.LostKeys()
	if len(frep.Repairs) == 0 || len(lost) == 0 {
		t.Skipf("poison landed on no live keys (repairs=%d lost=%d)", len(frep.Repairs), len(lost))
	}

	prim2, err := repl.NewPrimary(pdb2, &repl.InProc{R: rep})
	if err != nil {
		t.Fatal(err)
	}
	defer prim2.Close()
	rr, err := prim2.ReadRepair(frep)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Ranges != len(frep.Repairs) {
		t.Fatalf("fetched %d ranges, want %d", rr.Ranges, len(frep.Repairs))
	}
	if rr.Restored == 0 {
		t.Fatalf("read-repair restored nothing (report: %+v, %d lost keys)", rr, len(lost))
	}
	// Every key the local repair reported lost is back, with its value.
	for _, k := range lost {
		v, ok, err := prim2.Get([]byte(k), nil)
		if err != nil || !ok {
			t.Fatalf("lost key %x still missing after read-repair: %v %v", k, ok, err)
		}
		i := binary.LittleEndian.Uint64([]byte(k))
		if string(v) != string(key64(i*3)) {
			t.Fatalf("lost key %d restored with wrong value %x", i, v)
		}
	}
	// Idempotent: a second pass restores nothing.
	rr2, err := prim2.ReadRepair(frep)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Restored != 0 {
		t.Fatalf("second read-repair pass restored %d keys", rr2.Restored)
	}
	if err := checkAll(prim2, n); err != nil {
		t.Fatal(err)
	}
}

// checkAll verifies every key of the sequential workload is present
// with its written value.
func checkAll(p *repl.Primary, n uint64) error {
	for i := uint64(0); i < n; i++ {
		v, ok, err := p.Get(key64(i), nil)
		if err != nil {
			return fmt.Errorf("key %d: %w", i, err)
		}
		if !ok || string(v) != string(key64(i*3)) {
			return fmt.Errorf("key %d: found=%v val=%x", i, ok, v)
		}
	}
	return nil
}
