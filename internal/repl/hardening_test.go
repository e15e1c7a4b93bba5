package repl_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"spash"
	"spash/internal/obs"
	"spash/internal/pmem"
	"spash/internal/repl"
)

// noSleep removes real backoff delay from retry-heavy tests.
func noSleep(time.Duration) {}

// fastRetry is a retry policy that fails fast without wall-clock cost.
func fastRetry(attempts int) repl.RetryPolicy {
	return repl.RetryPolicy{MaxAttempts: attempts, Sleep: noSleep, Deadline: -1}
}

// flakyTransport fails every Ship until the failure budget runs out,
// then delegates. Fetch/Hello follow the same gate.
type flakyTransport struct {
	inner repl.Transport
	mu    sync.Mutex
	// failN is the number of Ship attempts left to fail; down reports
	// a hard outage (Hello fails too).
	failN int
	down  bool
}

func (t *flakyTransport) setDown(d bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down = d
}

func (t *flakyTransport) Ship(f *repl.Frame) error {
	t.mu.Lock()
	if t.down {
		t.mu.Unlock()
		return fmt.Errorf("flaky: outage: %w", spash.ErrTransportTimeout)
	}
	if t.failN > 0 {
		t.failN--
		t.mu.Unlock()
		return fmt.Errorf("flaky: injected failure: %w", spash.ErrTransportTimeout)
	}
	t.mu.Unlock()
	return t.inner.Ship(f)
}

func (t *flakyTransport) Fetch(req repl.FetchReq) ([]repl.KV, error) {
	t.mu.Lock()
	down := t.down
	t.mu.Unlock()
	if down {
		return nil, fmt.Errorf("flaky: outage: %w", spash.ErrTransportTimeout)
	}
	return t.inner.Fetch(req)
}

func (t *flakyTransport) Hello() (repl.Hello, error) {
	t.mu.Lock()
	down := t.down
	t.mu.Unlock()
	if down {
		return repl.Hello{}, fmt.Errorf("flaky: outage: %w", spash.ErrTransportTimeout)
	}
	return t.inner.Hello()
}

// pairOver wires a primary to a replica through mk(inner transport).
func pairOver(t *testing.T, n int, popts repl.PrimaryOptions,
	mk func(repl.Transport) repl.Transport) (*repl.Primary, *repl.Replica) {
	t.Helper()
	pdb, err := spash.Open(testOpts(n))
	if err != nil {
		t.Fatal(err)
	}
	dopts := testOpts(n)
	dopts.Replica = true
	rdb, err := spash.Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repl.NewReplica(rdb)
	if err != nil {
		t.Fatal(err)
	}
	prim, err := repl.NewPrimaryWith(pdb, mk(&repl.InProc{R: rep}), popts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		prim.Close()
		rep.Close()
		pdb.Close()
		rep.DB().Close()
	})
	return prim, rep
}

func TestRetryDeliversThroughFlakyTransport(t *testing.T) {
	var ft *flakyTransport
	prim, rep := pairOver(t, 2,
		repl.PrimaryOptions{Retry: fastRetry(4), ProbeInterval: -1},
		func(inner repl.Transport) repl.Transport {
			ft = &flakyTransport{inner: inner, failN: 2}
			return ft
		})
	// Two attempts fail, the third lands: the write must still be
	// synchronous and the breaker must stay closed.
	if err := prim.Insert(key64(1), key64(2)); err != nil {
		t.Fatalf("insert through flaky transport: %v", err)
	}
	if st, reason := prim.Breaker(); st != repl.BreakerClosed {
		t.Fatalf("breaker = %v (%s), want closed", st, reason)
	}
	if _, found, err := rep.DB().Session().Get(key64(1), nil); err != nil || !found {
		t.Fatalf("replica missing retried frame: found=%v err=%v", found, err)
	}
	snap := prim.DB().ObsSnapshot()
	if got := snap.Counters[obs.CounterNames[obs.CReplRetries]]; got != 2 {
		t.Fatalf("repl_retries = %d, want 2", got)
	}
}

func TestShipDeadlineFencesHangingTransport(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	prim, _ := pairOver(t, 2,
		repl.PrimaryOptions{
			Retry:         repl.RetryPolicy{MaxAttempts: 2, Sleep: noSleep, Deadline: 5 * time.Millisecond},
			ProbeInterval: -1,
		},
		func(inner repl.Transport) repl.Transport {
			return &hangingTransport{inner: inner, block: block}
		})
	// The transport hangs forever; the deadline must fail each attempt
	// and the write must still return (degraded, spilled) rather than
	// block indefinitely.
	done := make(chan error, 1)
	go func() { done <- prim.Insert(key64(1), key64(1)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded insert: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert blocked on a hung transport")
	}
	if st, reason := prim.Breaker(); st != repl.BreakerOpen {
		t.Fatalf("breaker = %v (%s), want open", st, reason)
	}
	if got := prim.SpillDepth(); got != 1 {
		t.Fatalf("spill depth = %d, want 1", got)
	}
}

// hangingTransport never answers Ship until block closes.
type hangingTransport struct {
	inner repl.Transport
	block chan struct{}
}

func (t *hangingTransport) Ship(f *repl.Frame) error {
	<-t.block
	return fmt.Errorf("hanging: released: %w", spash.ErrTransportTimeout)
}
func (t *hangingTransport) Fetch(req repl.FetchReq) ([]repl.KV, error) {
	return t.inner.Fetch(req)
}
func (t *hangingTransport) Hello() (repl.Hello, error) { return t.inner.Hello() }

func TestBreakerDegradesAndDrainsOnRecovery(t *testing.T) {
	var ft *flakyTransport
	prim, rep := pairOver(t, 2,
		repl.PrimaryOptions{Retry: fastRetry(2), ProbeInterval: -1},
		func(inner repl.Transport) repl.Transport {
			ft = &flakyTransport{inner: inner}
			return ft
		})
	const n = 20
	ft.setDown(true)
	for i := uint64(0); i < n; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatalf("degraded insert %d: %v", i, err)
		}
	}
	if st, _ := prim.Breaker(); st != repl.BreakerOpen {
		t.Fatalf("breaker = %v, want open during outage", st)
	}
	if got := prim.SpillDepth(); got != n-1 {
		// The first write's frame tripped the breaker after its retries
		// and spilled too; every later frame spilled directly. All n
		// are queued (n-1 only if the first had been delivered).
		if got != n {
			t.Fatalf("spill depth = %d, want %d", got, n)
		}
	}
	// Degraded mode must be visible to health.
	h := prim.DB().Health()
	if h.Status != obs.HealthDegraded {
		t.Fatalf("health during outage = %v (%v), want DEGRADED", h.Status, h.Reasons)
	}
	// A drain attempt against the dead transport must fail and keep
	// the breaker open, not wedge.
	if _, err := prim.TryDrain(); err == nil {
		t.Fatal("TryDrain succeeded against a dead transport")
	}
	// Recovery: drain ships everything in order and closes the breaker.
	ft.setDown(false)
	drained, err := prim.TryDrain()
	if err != nil {
		t.Fatalf("TryDrain after recovery: %v", err)
	}
	if drained == 0 {
		t.Fatal("drained 0 frames after recovery")
	}
	if st, reason := prim.Breaker(); st != repl.BreakerClosed {
		t.Fatalf("breaker after drain = %v (%s), want closed", st, reason)
	}
	if got := prim.SpillDepth(); got != 0 {
		t.Fatalf("spill depth after drain = %d, want 0", got)
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("replica lag after drain = %d, want 0", lag)
	}
	if got, want := rep.DB().Len(), prim.DB().Len(); got != want {
		t.Fatalf("replica holds %d keys, primary %d", got, want)
	}
	if h := prim.DB().Health(); h.Status != obs.HealthOK {
		t.Fatalf("health after drain = %v (%v), want OK", h.Status, h.Reasons)
	}
}

func TestProberDrainsInBackground(t *testing.T) {
	var ft *flakyTransport
	prim, rep := pairOver(t, 2,
		repl.PrimaryOptions{Retry: fastRetry(2), ProbeInterval: time.Millisecond},
		func(inner repl.Transport) repl.Transport {
			ft = &flakyTransport{inner: inner}
			return ft
		})
	ft.setDown(true)
	for i := uint64(0); i < 10; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatalf("degraded insert %d: %v", i, err)
		}
	}
	if st, _ := prim.Breaker(); st != repl.BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	ft.setDown(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := prim.Breaker()
		if st == repl.BreakerClosed && prim.SpillDepth() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober did not recover: breaker=%v spill=%d", st, prim.SpillDepth())
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := rep.DB().Len(), prim.DB().Len(); got != want {
		t.Fatalf("replica holds %d keys, primary %d", got, want)
	}
}

// overflowed drives a primary past its log bound with the transport
// down: extra writes beyond the bound, each of which must shed typed.
func overflowed(t *testing.T, extra int) (*repl.Primary, *repl.Replica, *flakyTransport, int) {
	t.Helper()
	var ft *flakyTransport
	prim, rep := pairOver(t, 2,
		repl.PrimaryOptions{Retry: fastRetry(2), ProbeInterval: -1},
		func(inner repl.Transport) repl.Transport {
			ft = &flakyTransport{inner: inner}
			return ft
		})
	ft.setDown(true)
	n := repl.PrimaryLogFrames + extra
	sheds := 0
	for i := 0; i < n; i++ {
		err := prim.Insert(key64(uint64(i)), key64(uint64(i)))
		if err == nil {
			continue
		}
		if !errors.Is(err, spash.ErrRetryExhausted) {
			t.Fatalf("overflow shed %d: %v, want ErrRetryExhausted", i, err)
		}
		var re *spash.ReplicationError
		if !errors.As(err, &re) {
			t.Fatalf("overflow shed %d not a *ReplicationError: %v", i, err)
		}
		sheds++
	}
	if sheds != extra {
		t.Fatalf("sheds = %d, want %d (writes past the log bound)", sheds, extra)
	}
	// Shed or not, every write applied locally.
	if got := prim.DB().Len(); got != n {
		t.Fatalf("primary holds %d keys, want %d (sheds must not undo local applies)", got, n)
	}
	return prim, rep, ft, n
}

func reseeds(prim *repl.Primary) int64 {
	return prim.DB().ObsSnapshot().Counters[obs.CounterNames[obs.CReplReseeds]]
}

func TestSpillOverflowShedsTypedAndResyncRepairs(t *testing.T) {
	const extra = 6
	prim, rep, ft, n := overflowed(t, extra)
	// Recovery: the shed frames are in no log, so the one drain's
	// handshake finds the peer's cursor behind the log's base and
	// re-seeds from the local image.
	ft.setDown(false)
	if _, err := prim.TryDrain(); err != nil {
		t.Fatalf("TryDrain: %v", err)
	}
	if got := rep.DB().Len(); got != n {
		t.Fatalf("replica holds %d keys after resync, want %d", got, n)
	}
	if st, reason := prim.Breaker(); st != repl.BreakerClosed || prim.SpillDepth() != 0 {
		t.Fatalf("after drain: breaker %v (%s) spill %d, want closed and 0", st, reason, prim.SpillDepth())
	}
	snap := prim.DB().ObsSnapshot()
	if got := snap.Counters[obs.CounterNames[obs.CReplSpillSheds]]; got != extra {
		t.Fatalf("repl_spill_sheds = %d, want %d", got, extra)
	}
	if got := reseeds(prim); got != 1 {
		t.Fatalf("repl_reseeds = %d, want 1", got)
	}
}

// TestFullSyncAfterShedIsNotRepeated: an operator FullSync that
// converges the replica after a shed leaves nothing to repair, so the
// drain and the resync that follow must ship no frame at all. (With
// the gap kept as a flag only the automated re-seed cleared, they
// shipped a second full image of every shard.)
func TestFullSyncAfterShedIsNotRepeated(t *testing.T) {
	prim, rep, ft, n := overflowed(t, 6)
	ft.setDown(false)
	if _, err := prim.FullSync(); err != nil {
		t.Fatalf("FullSync: %v", err)
	}
	if got := rep.DB().Len(); got != n {
		t.Fatalf("replica holds %d keys after FullSync, want %d", got, n)
	}
	before := prim.DB().ObsSnapshot()
	if _, err := prim.TryDrain(); err != nil {
		t.Fatalf("TryDrain: %v", err)
	}
	if err := prim.Resync(); err != nil {
		t.Fatalf("Resync: %v", err)
	}
	after := prim.DB().ObsSnapshot()
	for _, c := range []obs.Counter{obs.CReplReseeds, obs.CReplShipSegments, obs.CReplReplays} {
		name := obs.CounterNames[c]
		if d := after.Counters[name] - before.Counters[name]; d != 0 {
			t.Fatalf("%s moved by %d after a converging FullSync, want 0", name, d)
		}
	}
	rsnap := rep.DB().ObsSnapshot()
	if got := rsnap.Counters[obs.CounterNames[obs.CReplApplySegments]]; got != 2 {
		t.Fatalf("replica applied %d segment frames, want 2 (one image per shard)", got)
	}
	if got := rsnap.Counters[obs.CounterNames[obs.CReplApplyDupes]]; got != 0 {
		t.Fatalf("replica saw %d duplicate frames, want 0 (nothing left to ship)", got)
	}
	if st, reason := prim.Breaker(); st != repl.BreakerClosed || prim.SpillDepth() != 0 {
		t.Fatalf("breaker %v (%s) spill %d, want closed and 0", st, reason, prim.SpillDepth())
	}
}

func TestResyncReplaysPauseLossAfterRejoin(t *testing.T) {
	prim, rep := pair(t, 2)
	const base = 50
	for i := uint64(0); i < base; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer a tail of acknowledged frames, then lose them to a
	// replica power-cycle (eADR: applied state survives, the pause
	// buffer does not).
	rep.Pause()
	for i := uint64(base); i < base+10; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Rejoin(testOpts(2)); err != nil {
		t.Fatalf("eADR rejoin: %v", err)
	}
	if got := rep.AppliedSeq(); got != base {
		t.Fatalf("applied cursor after rejoin = %d, want %d", got, base)
	}
	// The next ship sees the replica's cursor behind the stream and
	// auto-resyncs: the lost tail replays from the delivered log, then
	// the new frame lands — no operator step.
	if err := prim.Insert(key64(999), key64(999)); err != nil {
		t.Fatalf("post-rejoin insert: %v", err)
	}
	if got, want := rep.DB().Len(), prim.DB().Len(); got != want {
		t.Fatalf("replica holds %d keys, primary %d", got, want)
	}
	snap := prim.DB().ObsSnapshot()
	if got := snap.Counters[obs.CounterNames[obs.CReplResyncs]]; got == 0 {
		t.Fatal("no resync counted after rejoin gap")
	}
	if got := snap.Counters[obs.CounterNames[obs.CReplReplays]]; got == 0 {
		t.Fatal("no frames replayed after rejoin gap")
	}
}

func adrOpts(n int) spash.Options {
	o := testOpts(n)
	o.Platform.Mode = pmem.ADR
	return o
}

func TestADRRollbackTriggersAutoReseed(t *testing.T) {
	pdb, err := spash.Open(adrOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	dopts := adrOpts(2)
	dopts.Replica = true
	rdb, err := spash.Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repl.NewReplica(rdb)
	if err != nil {
		t.Fatal(err)
	}
	prim, err := repl.NewPrimaryWith(pdb, &repl.InProc{R: rep},
		repl.PrimaryOptions{Retry: fastRetry(3), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		prim.Close()
		rep.Close()
		pdb.Close()
		rep.DB().Close()
	})
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := prim.Insert(key64(i), key64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	// An ADR power-cycle rolls back unflushed lines; if any are under
	// the applied cursor the replica must refuse to anchor and demand
	// a re-seed.
	rerr := rep.Rejoin(adrOpts(2))
	if rerr != nil && !errors.Is(rerr, spash.ErrNeedsReseed) {
		t.Fatalf("ADR rejoin: %v, want nil or ErrNeedsReseed", rerr)
	}
	if rerr != nil {
		// Reseed-pending: record frames must be refused typed (a dup
		// ack would vouch for rolled-back data) until the re-seed.
		h, herr := rep.Hello()
		if herr != nil || !h.NeedsReseed {
			t.Fatalf("hello after rollback: %+v %v, want NeedsReseed", h, herr)
		}
	}
	// The next write's ship auto-resyncs (replay or full re-seed) with
	// no operator action; both nodes converge.
	if err := prim.Insert(key64(7777), key64(7777)); err != nil {
		t.Fatalf("post-rollback insert: %v", err)
	}
	if got, want := rep.DB().Len(), prim.DB().Len(); got != want {
		t.Fatalf("replica holds %d keys, primary %d", got, want)
	}
	rs := rep.DB().Session()
	defer rs.Close()
	for i := uint64(0); i < n; i++ {
		got, found, gerr := rs.Get(key64(i), nil)
		if gerr != nil || !found {
			t.Fatalf("replica lost key %d after reseed: found=%v err=%v", i, found, gerr)
		}
		if string(got) != string(key64(i*3)) {
			t.Fatalf("replica key %d holds wrong value", i)
		}
	}
	if rerr != nil {
		snap := prim.DB().ObsSnapshot()
		if got := snap.Counters[obs.CounterNames[obs.CReplReseeds]]; got == 0 {
			t.Fatal("rollback converged without a counted re-seed")
		}
	}
}

func TestDuplicateFramesAckedAndDropped(t *testing.T) {
	_, rep := pair(t, 2)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := rep.Apply(mkRecord(seq, seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Replays of anything at or under the cursor are acked and dropped.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := rep.Apply(mkRecord(seq, seq)); err != nil {
			t.Fatalf("duplicate seq %d: %v, want ack", seq, err)
		}
	}
	if got := rep.DB().Len(); got != 3 {
		t.Fatalf("replica holds %d keys after duplicates, want 3", got)
	}
	snap := rep.DB().ObsSnapshot()
	if got := snap.Counters[obs.CounterNames[obs.CReplApplyDupes]]; got != 3 {
		t.Fatalf("repl_apply_dupes = %d, want 3", got)
	}
}

func TestPauseBufferCapSheds(t *testing.T) {
	_, rep := pair(t, 2)
	rep.Pause()
	const bound = repl.ReplicaLogFrames
	for seq := uint64(1); seq <= bound; seq++ {
		if err := rep.Apply(mkRecord(seq, seq)); err != nil {
			t.Fatalf("held frame %d: %v", seq, err)
		}
	}
	// The next in-stream frame hits the bound and is shed, not acked —
	// and so is a frame past it: held and parked frames share one log.
	for _, seq := range []uint64{bound + 1, bound + 2} {
		if err := rep.Apply(mkRecord(seq, seq)); !errors.Is(err, spash.ErrReplicaLag) {
			t.Fatalf("frame %d past the log bound: %v, want ErrReplicaLag", seq, err)
		}
	}
	if lag := rep.Lag(); lag != bound {
		t.Fatalf("lag = %d, want %d", lag, bound)
	}
	if err := rep.Resume(); err != nil {
		t.Fatal(err)
	}
	// The shed frames were refused, not acked: the sender re-ships them
	// and the stream drains.
	for _, seq := range []uint64{bound + 1, bound + 2} {
		if err := rep.Apply(mkRecord(seq, seq)); err != nil {
			t.Fatalf("re-shipped frame %d: %v", seq, err)
		}
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("lag after re-ship = %d, want 0", lag)
	}
	if got := rep.DB().Len(); got != bound+2 {
		t.Fatalf("replica holds %d keys, want %d", got, bound+2)
	}
	snap := rep.DB().ObsSnapshot()
	if got := snap.Counters[obs.CounterNames[obs.CReplSheds]]; got != 2 {
		t.Fatalf("repl_sheds = %d, want 2", got)
	}
}

// TestShuffledDeliveryConverges is the property-style drill: a seeded
// stream of insert/update/delete frames is delivered with duplicates
// and bounded reordering (displacement far under the log bound), a
// replica power-cycle lands mid-shuffle, and a final in-order sweep
// (the resync replay) must leave the replica byte-identical to the
// in-order model image.
func TestShuffledDeliveryConverges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			_, rep := pair(t, 2)

			// Build the canonical stream and its in-order model image.
			const n = 400
			const keys = 64
			model := map[string]string{}
			frames := make([]*repl.Frame, 0, n)
			for seq := uint64(1); seq <= n; seq++ {
				k := key64(uint64(rng.Intn(keys)))
				f := &repl.Frame{Kind: repl.FrameRecord, Epoch: 1, Seq: seq,
					Shard: int(spash.ShardOf(k, 2)), Key: k}
				if rng.Intn(4) == 0 {
					f.Op = repl.RecDelete
					delete(model, string(k))
				} else {
					f.Op = repl.RecInsert
					f.Val = key64(seq)
					model[string(k)] = string(f.Val)
				}
				frames = append(frames, f)
			}

			// Shuffled delivery: bounded displacement plus random
			// duplicates; every frame delivered at least once.
			deliver := func(lo, hi int) {
				order := make([]int, hi-lo)
				for i := range order {
					order[i] = lo + i
				}
				for i := range order {
					j := i + rng.Intn(8)
					if j >= len(order) {
						j = len(order) - 1
					}
					order[i], order[j] = order[j], order[i]
				}
				for _, idx := range order {
					f := frames[idx]
					if err := rep.Apply(f); err != nil &&
						!errors.Is(err, spash.ErrReplicaLag) {
						t.Fatalf("apply seq %d: %v", f.Seq, err)
					}
					if rng.Intn(5) == 0 { // duplicate delivery
						if err := rep.Apply(f); err != nil &&
							!errors.Is(err, spash.ErrReplicaLag) {
							t.Fatalf("dup apply seq %d: %v", f.Seq, err)
						}
					}
				}
			}
			deliver(0, n/2)
			// Mid-shuffle power-cycle: the image must recover (Rejoin is
			// RecoverAll) and keep its durable cursor.
			if err := rep.Rejoin(testOpts(2)); err != nil {
				t.Fatalf("mid-shuffle rejoin: %v", err)
			}
			deliver(n/2, n)
			// The resync replay: one in-order sweep of the whole stream.
			// Idempotent apply acks everything already applied.
			for _, f := range frames {
				if err := rep.Apply(f); err != nil {
					t.Fatalf("in-order sweep seq %d: %v", f.Seq, err)
				}
			}

			if got, want := rep.DB().Len(), len(model); got != want {
				t.Fatalf("replica holds %d keys, model %d", got, want)
			}
			rs := rep.DB().Session()
			defer rs.Close()
			for k, v := range model {
				got, found, err := rs.Get([]byte(k), nil)
				if err != nil || !found {
					t.Fatalf("model key missing on replica: found=%v err=%v", found, err)
				}
				if string(got) != v {
					t.Fatalf("model key holds %q, want %q", got, v)
				}
			}
			if got := rep.AppliedSeq(); got != n {
				t.Fatalf("applied cursor = %d, want %d", got, n)
			}
		})
	}
}

func TestFaultyTransportEndToEnd(t *testing.T) {
	var ft *repl.FaultyTransport
	prim, rep := pairOver(t, 2,
		repl.PrimaryOptions{Retry: repl.RetryPolicy{MaxAttempts: 6, Sleep: noSleep, Deadline: -1, JitterSeed: 3}, ProbeInterval: -1},
		func(inner repl.Transport) repl.Transport {
			ft = repl.NewFaultyTransport(inner, repl.FaultSpec{
				Seed: 11, Drop: 0.15, Delay: 0.15, Dup: 0.1, Reorder: 0.1})
			return ft
		})
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := prim.Insert(key64(i), key64(i)); err != nil {
			t.Fatalf("insert %d over faulty transport: %v", i, err)
		}
	}
	// Whatever the faults did, convergence is bounded: heal, drain,
	// resync, compare.
	ft.Heal()
	for range [50]int{} {
		if _, err := prim.TryDrain(); err == nil {
			break
		}
	}
	if err := prim.Resync(); err != nil {
		t.Fatalf("final resync: %v", err)
	}
	if lag := rep.Lag(); lag != 0 {
		t.Fatalf("replica lag after heal = %d, want 0", lag)
	}
	if got, want := rep.DB().Len(), prim.DB().Len(); got != want {
		st := ft.Stats()
		t.Fatalf("replica holds %d keys, primary %d (faults: %+v)", got, want, st)
	}
	st := ft.Stats()
	if st.Drops == 0 && st.Delays == 0 && st.Dups == 0 && st.Reorders == 0 {
		t.Fatalf("fault injection idle: %+v", st)
	}
}

// A replica whose device is full refuses a frame with ErrNoSpace, and
// waiting does not make room: the primary ships the frame once, opens
// the breaker, spills the frame and still acknowledges the local write,
// in one transport call.
func TestFullReplicaOpensBreakerOnFirstRefusal(t *testing.T) {
	pdb, err := spash.Open(testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	ropts := testOpts(1)
	ropts.Replica = true
	ropts.Platform.PoolSize = 2 << 20 // half the primary's: it fills first
	rdb, err := spash.Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repl.NewReplica(rdb)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{inner: &repl.InProc{R: rep}}
	prim, err := repl.NewPrimaryWith(pdb, ct, repl.PrimaryOptions{Retry: fastRetry(4), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		prim.Close()
		rep.Close()
		pdb.Close()
		rdb.Close()
	})
	counter := func(c obs.Counter) int64 { return prim.DB().ObsSnapshot().Counters[obs.CounterNames[c]] }
	val := make([]byte, 100)
	for i := 0; ; i++ {
		if i > 1<<16 {
			t.Fatal("the replica never filled")
		}
		calls, spills := ct.calls(), counter(obs.CReplSpills)
		if err := prim.Insert([]byte(fmt.Sprintf("key-%012d", i)), val); err != nil {
			t.Fatalf("insert %d: %v, want the local write acknowledged", i, err)
		}
		st, reason := prim.Breaker()
		if st == repl.BreakerClosed {
			continue
		}
		if st != repl.BreakerOpen || !strings.Contains(reason, spash.ErrNoSpace.Error()) {
			t.Fatalf("insert %d: breaker %v (%s), want open on the replica's NOSPACE", i, st, reason)
		}
		if n := ct.calls() - calls; n != 1 {
			t.Errorf("insert %d: %d transport calls for the refused frame, want 1", i, n)
		}
		if n := counter(obs.CReplSpills) - spills; n != 1 {
			t.Errorf("insert %d: repl_spills +%d, want +1", i, n)
		}
		if n := counter(obs.CReplRetries); n != 0 {
			t.Errorf("repl_retries = %d, want 0", n)
		}
		if _, ok, err := prim.DB().Session().Get([]byte(fmt.Sprintf("key-%012d", i)), nil); err != nil || !ok {
			t.Errorf("insert %d is not readable on the primary: %v, %v", i, ok, err)
		}
		return
	}
}
