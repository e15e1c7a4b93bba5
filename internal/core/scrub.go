package core

import (
	"time"

	"spash/internal/hash"
	"spash/internal/htm"
	"spash/internal/obs"
)

// The online scrubber re-verifies segment seals in the background
// while the index serves traffic, so media rot is found and repaired
// proactively instead of on first access. Each segment is verified in
// its own optimistic transaction through the two-phase protocol: the
// verify joins the HTM read set, so it never blocks writers — a
// concurrent mutation simply aborts the verify, which skips the
// segment until the next pass. A failed verify (seal mismatch or
// poisoned media) triggers the same quarantine-and-rebuild path fsck
// uses.

// ScrubOptions parameterises StartScrub.
type ScrubOptions struct {
	// Rate caps verification at this many segments per second
	// (0 = unthrottled). The cap bounds the scrubber's read bandwidth,
	// the knob a production deployment would tune against foreground
	// interference.
	Rate int
	// Passes stops the scrubber after this many full pool walks
	// (0 = run until Stop).
	Passes int
	// Pause is the idle time between passes (default 10ms).
	Pause time.Duration
	// Repair enables quarantine of corrupt segments; when false the
	// scrubber only counts and traces what it finds.
	Repair bool
}

// ScrubStats summarises a scrubber's lifetime work.
type ScrubStats struct {
	Passes      int64 `json:"passes"`
	Segments    int64 `json:"segments"`
	Corruptions int64 `json:"corruptions"`
	Quarantines int64 `json:"quarantines"`
	// Skipped counts verifies abandoned because of concurrent writer
	// activity (retried on the next pass); Errors counts failed
	// quarantine attempts.
	Skipped int64 `json:"skipped"`
	Errors  int64 `json:"errors"`
}

// Add returns s + o counter-wise, aggregating per-shard scrubbers into
// one database-level view.
func (s ScrubStats) Add(o ScrubStats) ScrubStats {
	return ScrubStats{
		Passes:      s.Passes + o.Passes,
		Segments:    s.Segments + o.Segments,
		Corruptions: s.Corruptions + o.Corruptions,
		Quarantines: s.Quarantines + o.Quarantines,
		Skipped:     s.Skipped + o.Skipped,
		Errors:      s.Errors + o.Errors,
	}
}

// Scrubber is a running background scrub; see Index.StartScrub.
type Scrubber struct {
	ix   *Index
	h    *Handle
	opt  ScrubOptions
	stop chan struct{}
	done chan struct{}
	// stats is owned by the scrub goroutine until done is closed.
	stats ScrubStats
}

// StartScrub launches a background scrubber over the index. The
// scrubber owns a private Handle, so it is safe alongside any number
// of worker handles. Stop must be called before closing the index.
func (ix *Index) StartScrub(opt ScrubOptions) *Scrubber {
	if opt.Pause == 0 {
		opt.Pause = 10 * time.Millisecond
	}
	s := &Scrubber{
		ix:   ix,
		h:    ix.NewHandle(nil),
		opt:  opt,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.run()
	return s
}

// Stop terminates the scrubber and returns its lifetime stats. An
// in-progress pass is abandoned, so a Stop issued right after
// StartScrub may collect before the first pass verified anything; use
// Wait first when the full walk matters.
func (s *Scrubber) Stop() ScrubStats {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	return s.stats
}

// Wait blocks until a bounded scrub (Passes > 0) has completed its
// walks. Stop is still required to collect the stats. Waiting on an
// unbounded scrub blocks until someone calls Stop.
func (s *Scrubber) Wait() {
	<-s.done
}

func (s *Scrubber) run() {
	defer close(s.done)
	defer s.h.Close()
	var gap time.Duration
	if s.opt.Rate > 0 {
		gap = time.Second / time.Duration(s.opt.Rate)
	}
	for pass := 0; s.opt.Passes == 0 || pass < s.opt.Passes; pass++ {
		segs, corr := s.scanPass(gap)
		s.stats.Passes++
		s.ix.reg.Trace(obs.EvScrubPass, s.h.c.Clock(), segs, corr)
		s.ix.reg.SetGauge(obs.GScrubPasses, int64(s.stats.Passes))
		if s.opt.Passes > 0 && pass+1 >= s.opt.Passes {
			return
		}
		select {
		case <-s.stop:
			return
		case <-time.After(s.opt.Pause):
		}
	}
}

// scanPass walks the registry once, verifying every live segment.
func (s *Scrubber) scanPass(gap time.Duration) (segs, corr int64) {
	ix := s.ix
	var next time.Time
	ix.eachRegistered(s.h.c, func(seg, prefix uint64, depth uint, poisoned bool) bool {
		select {
		case <-s.stop:
			return false
		default:
		}
		if poisoned {
			return true
		}
		if gap > 0 {
			if now := time.Now(); now.Before(next) {
				select {
				case <-s.stop:
					return false
				case <-time.After(next.Sub(now)):
				}
				next = next.Add(gap)
			} else {
				next = now.Add(gap)
			}
		}
		corrupt, skipped := s.verifyOnline(seg, prefix, depth)
		if skipped {
			s.stats.Skipped++
			return true
		}
		segs++
		s.stats.Segments++
		if !corrupt {
			return true
		}
		corr++
		s.stats.Corruptions++
		if !s.opt.Repair {
			return true
		}
		qr, err := s.h.Quarantine(prefix<<(64-depth), seg)
		switch {
		case err != nil:
			s.stats.Errors++
		case qr != nil:
			s.stats.Quarantines++
		}
		return true
	})
	return segs, corr
}

// verifyOnline checks one segment's seal inside an optimistic
// transaction. The transaction re-resolves the directory entry, so a
// segment that split, merged or moved since the registry read is
// skipped; a conflicting writer aborts the verify (skipped, not
// blocked — the scrubber never takes locks). With checksums off the
// transaction still touches every word, so poisoned media is detected
// even without seals.
func (s *Scrubber) verifyOnline(seg, prefix uint64, depth uint) (corrupt, skipped bool) {
	ix := s.ix
	c := s.h.c
	hh := prefix << (64 - depth)
	verify := func(tx *htm.Txn) error {
		corrupt = false
		if tx.LoadVol(&ix.dirGen)&1 == 1 {
			return errResizing
		}
		d := ix.dir.Load()
		e := tx.LoadVol(&d.entries[d.index(hh)])
		if entryLocked(e) {
			return errLocked
		}
		if entrySeg(e) != seg || entryDepth(e) != depth ||
			hash.Prefix(hh, entryDepth(e)) != prefix {
			return errSegMoved
		}
		m := txMem{tx}
		if ix.sealAddr != 0 {
			corrupt = ix.verifySeal(m, seg, &s.h.segBuf) != 0
		} else {
			loadSegment(m, seg, &s.h.segBuf) // poison probe
		}
		return nil
	}
	var code htm.Code
	if tolerate(poisonOnly, func() { code, _ = ix.tm.Run(c, ix.pool, verify) }) != nil {
		return true, false
	}
	if code != htm.Committed {
		return false, true
	}
	return corrupt, false
}
