// Multi-writer crash smoke: the single-threaded sweep (crashtest.go)
// proves per-operation atomicity, but recovery after a *concurrent*
// crash is a different path — several workers mid-operation through
// separate Ctxs when the power cuts, so the image holds interleaved
// in-flight damage from all of them. The oracle here is necessarily
// schedule-independent: values are a pure function of the key, so
// after recovery every present key must carry exactly its function
// value (torn or mixed values are the failure), every key a writer
// acknowledged before the cut must be present under eADR, and
// CheckInvariants must hold. ADR trials interpose the documented
// recover-then-fsck flow first: without the persist-barrier discipline
// ADR gives no ordering between a cut's surviving cachelines (the
// paper's argument for eADR), so the image can hold line-granular
// tears — a slot durable while its out-of-line record rolled back, a
// split's migration half-applied — that only quarantine repair can
// reconcile, at the price of the repaired segments' lost keys, which
// the ADR oracle tolerates.
package crashtest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spash/internal/core"
	"spash/internal/pmem"
	"spash/internal/repl"
)

// concKey returns writer w's i-th key (disjoint across writers).
func concKey(w, i int) []byte {
	return []byte(fmt.Sprintf("w%02d-%06d", w, i))
}

// concVal is the deterministic value of a key: recovery can recompute
// it without any shared acknowledgment log.
func concVal(w, i int) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(w)*0x9E3779B97F4A7C15+uint64(i))
	binary.LittleEndian.PutUint64(b[8:], uint64(i)*2654435761)
	return b[:]
}

// ConcurrentTrial is the outcome of one multi-writer crash trial.
type ConcurrentTrial struct {
	Fired        bool
	Steps        int64
	RecoverErr   error
	InvariantErr error
	// LostAcked counts keys acknowledged strictly before the cut that
	// are missing after recovery (must be 0 under eADR).
	LostAcked int
	// Torn counts present keys whose value is not the key's function
	// value — a torn or interleaved write leaking through recovery.
	Torn int
	// Present is the total recovered key count (diagnostics).
	Present int
	// FsckFaults/FsckUnrepaired report the repair pass ADR trials run;
	// any unrepaired fault fails the trial.
	FsckFaults     int
	FsckUnrepaired int
}

// Failed reports whether the trial violated its contract for mode.
func (tr *ConcurrentTrial) Failed(mode pmem.Mode) bool { return tr.Err(mode) != nil }

// Err formats the trial's violation for mode, or nil.
func (tr *ConcurrentTrial) Err(mode pmem.Mode) error {
	switch {
	case tr.RecoverErr != nil:
		return fmt.Errorf("concurrent crash at step %d: recovery failed: %w", tr.Steps, tr.RecoverErr)
	case tr.InvariantErr != nil:
		return fmt.Errorf("concurrent crash at step %d: invariants violated: %w", tr.Steps, tr.InvariantErr)
	case tr.Torn > 0:
		return fmt.Errorf("concurrent crash at step %d: %d torn values recovered", tr.Steps, tr.Torn)
	case tr.FsckUnrepaired > 0:
		return fmt.Errorf("concurrent crash at step %d: %d segment faults unrepaired after fsck", tr.Steps, tr.FsckUnrepaired)
	case mode == pmem.EADR && tr.LostAcked > 0:
		return fmt.Errorf("concurrent crash at step %d: %d acknowledged inserts lost", tr.Steps, tr.LostAcked)
	}
	return nil
}

// RunConcurrentTrial starts writers goroutines inserting disjoint key
// ranges through separate Ctxs, fires one armed FaultPlan at
// crashStep (a global persistence-primitive step, so the victim and
// the interleaving vary with the schedule), then recovers and checks
// the oracle. Each writer publishes its acknowledged high-water mark
// through an atomic counter *after* each successful insert, so a key
// counted acked was fully acknowledged strictly before the cut.
func RunConcurrentTrial(mode pmem.Mode, writers, perWriter int, crashStep int64) (ConcurrentTrial, error) {
	tr := ConcurrentTrial{}
	opts := options(1, mode, core.Config{})
	opts.Index.InitialDepth = 2
	sys, err := open(opts, nil, repl.RetryPolicy{})
	if err != nil {
		return tr, err
	}
	platforms := sys.db.Platforms()

	fp := &pmem.FaultPlan{CrashAtStep: crashStep}
	platforms[0].ArmFault(fp)

	ackedHW := make([]atomic.Int64, writers)
	werrs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = pmem.CatchCrash(func() error {
				s := sys.db.Session()
				defer s.Close()
				for i := 0; i < perWriter; i++ {
					if err := s.Insert(concKey(w, i), concVal(w, i)); err != nil {
						return fmt.Errorf("writer %d insert %d: %w", w, i, err)
					}
					ackedHW[w].Store(int64(i + 1))
				}
				return nil
			})
		}(w)
	}
	wg.Wait()
	platforms[0].DisarmFault()
	tr.Fired = fp.Fired()
	tr.Steps = fp.Steps()
	for _, werr := range werrs {
		if werr != nil && !errors.Is(werr, pmem.ErrInjectedCrash) {
			return tr, werr
		}
	}

	db, _, rerr := restore(platforms, tr.Fired, 0, opts)
	if rerr != nil {
		tr.RecoverErr = rerr
		return tr, nil
	}
	s := db.Session()
	if mode == pmem.ADR && tr.Fired {
		// Recover-then-fsck (see the file comment): hold the oracle
		// against the repaired image.
		fr, ferr := s.Fsck(true)
		if ferr != nil {
			tr.RecoverErr = ferr
			return tr, nil
		}
		tr.FsckFaults = len(fr.Faults)
		tr.FsckUnrepaired = len(fr.Failed)
	}
	_, tr.InvariantErr = structure(db, s)
	for w := 0; w < writers; w++ {
		hw := int(ackedHW[w].Load())
		for i := 0; i < perWriter; i++ {
			got, found, serr := s.Get(concKey(w, i), nil)
			if serr != nil {
				return tr, fmt.Errorf("writer %d key %d: %w", w, i, serr)
			}
			if found {
				tr.Present++
				if !bytes.Equal(got, concVal(w, i)) {
					tr.Torn++
				}
			} else if i < hw {
				tr.LostAcked++
			}
		}
	}
	return tr, nil
}
