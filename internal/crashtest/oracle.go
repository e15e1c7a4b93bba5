package crashtest

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"spash"
	"spash/internal/core"
	"spash/internal/pmem"
)

// writer is what a script op is applied to: a session (local only) or
// a shipping primary.
type writer interface {
	Insert(key, val []byte) error
	Update(key, val []byte) (bool, error)
	Delete(key []byte) (bool, error)
}

func apply(w writer, op *Op) error {
	switch op.Kind {
	case OpInsert:
		return w.Insert([]byte(op.Key), []byte(op.Val))
	case OpUpdate:
		_, err := w.Update([]byte(op.Key), []byte(op.Val))
		return err
	case OpDelete:
		_, err := w.Delete([]byte(op.Key))
		return err
	}
	return fmt.Errorf("crashtest: unknown op kind %d", op.Kind)
}

func applyModel(m map[string]string, op *Op) {
	switch op.Kind {
	case OpInsert:
		m[op.Key] = op.Val
	case OpUpdate:
		if _, ok := m[op.Key]; ok { // update of an absent key is a no-op
			m[op.Key] = op.Val
		}
	case OpDelete:
		delete(m, op.Key)
	}
}

// model is what the clients of a script were told: it trails the
// system by exactly the in-flight operation.
type model struct {
	universe []string          // every key the script names, in first-use order
	acked    map[string]string // the acknowledged state
	// history is every value a key was ever acknowledged to hold: what
	// an ADR rollback can legally resurface.
	history map[string][]string
	// inFlight is the operation a power cut interrupted; nil at a
	// quiescent point.
	inFlight *Op
	// refusable lets a write return ErrNoSpace (a fill drill's script
	// runs the pool out of room on purpose); elsewhere the refusal is a
	// workload failure. refused counts those writes: their clients were
	// told nothing happened, so they are not acknowledged.
	refusable bool
	refused   int
}

func newModel(script Script) *model {
	m := &model{acked: make(map[string]string), history: make(map[string][]string)}
	seen := make(map[string]struct{}, len(script))
	for i := range script {
		if _, ok := seen[script[i].Key]; !ok {
			seen[script[i].Key] = struct{}{}
			m.universe = append(m.universe, script[i].Key)
		}
	}
	return m
}

// ack records that op returned to its client.
func (m *model) ack(op *Op) {
	applyModel(m.acked, op)
	if v, ok := m.acked[op.Key]; ok {
		if h := m.history[op.Key]; len(h) == 0 || h[len(h)-1] != v {
			m.history[op.Key] = append(h, v)
		}
	}
	m.inFlight = nil
}

// snapshot copies the acknowledged state (history is shared: it only
// grows, and a later value is never wrong to tolerate).
func (m *model) snapshot() *model {
	return &model{universe: m.universe, acked: maps.Clone(m.acked), history: m.history}
}

// play applies script[lo:hi] to w, acknowledging each op in m once it
// has returned. When m is refusable, a write refused with ErrNoSpace
// returned too, typed, but is not acknowledged: the oracle then holds its
// key to the state before it, and the script goes on.
func play(w writer, script Script, lo, hi int, m *model) error {
	for i := lo; i < hi; i++ {
		op := &script[i]
		m.inFlight = op
		if err := apply(w, op); m.refusable && errors.Is(err, spash.ErrNoSpace) {
			m.inFlight = nil
			m.refused++
			continue
		} else if err != nil {
			return fmt.Errorf("op %d (%v %q): %w", i, op.Kind, op.Key, err)
		}
		m.ack(op)
	}
	return nil
}

// reader is what the oracle reads a system through.
type reader interface {
	Get(key, dst []byte) ([]byte, bool, error)
}

// Verdict is what one sweep of a model's key universe found.
type Verdict struct {
	StillLost int // acknowledged keys absent with no excuse
	// LostExcused counts absent keys the contract lets go: rolled back
	// by an ADR cut, or named or covered by the quarantine report.
	LostExcused int
	Wrong       int  // keys holding a value never acknowledged for them (a deleted key that is present included)
	Torn        bool // the in-flight key at neither its pre- nor its post-state
	Unreadable  int  // reads failing with typed corruption (core.ErrCorrupted, pmem.ErrPoisoned)
	Untyped     int  // reads failing any other way
	LenMismatch bool // an entry count neither the acknowledged state nor the in-flight op explains
}

// judge is the durability oracle. It reads every key of m's universe
// through r and classifies what it finds. The exact contract (eADR's
// claim: visible implies durable) accepts the acknowledged state and,
// for the key of the in-flight operation, its post-state — nothing in
// between — and checks n, the live-entry count (n < 0 skips it).
// tolerant relaxes exactly what the drill's damage may legitimately
// cost: under ADR a cut rolls unflushed acknowledged writes back, so
// absence and any value from the key's history pass; under eADR only a
// loss that rep names or covers is excused, and a value the key never
// held is wrong in every mode.
func judge(r reader, n int, m *model, tolerant, adr bool, rep *spash.FsckReport) (v Verdict) {
	// A repair excuses the keys it lists as lost and — undecodable
	// dropped entries cannot be listed by key — any key hashing into
	// the range it quarantined.
	excused := func(key string) bool {
		h := core.KeyHash([]byte(key))
		return rep != nil && slices.ContainsFunc(rep.Repairs, func(q core.QuarantineReport) bool {
			return q.Covers(h) ||
				slices.ContainsFunc(q.LostKeys, func(k []byte) bool { return string(k) == key })
		})
	}
	// post is the in-flight key's state had its operation completed,
	// postLen the entry count in that case.
	post, postLen := map[string]string{}, len(m.acked)
	if op := m.inFlight; op != nil {
		pre, had := m.acked[op.Key]
		if had {
			post[op.Key] = pre
		}
		applyModel(post, op)
		if _, has := post[op.Key]; has && !had {
			postLen++
		} else if had && !has {
			postLen--
		}
	}
	for _, k := range m.universe {
		got, found, err := r.Get([]byte(k), nil)
		if err != nil {
			if errors.Is(err, core.ErrCorrupted) || errors.Is(err, pmem.ErrPoisoned) {
				v.Unreadable++
			} else {
				v.Untyped++
			}
			continue
		}
		is := func(val string, present bool) bool {
			return found == present && (!found || string(got) == val)
		}
		want, present := m.acked[k]
		inFlight := m.inFlight != nil && m.inFlight.Key == k
		switch postVal, postPresent := post[k]; {
		case is(want, present):
		case inFlight && is(postVal, postPresent):
		case tolerant && adr && (!found || slices.Contains(m.history[k], string(got))):
			if !found {
				v.LostExcused++
			}
		case tolerant && !found && excused(k):
			v.LostExcused++
		case inFlight:
			v.Torn = true
		case found:
			v.Wrong++
		default:
			v.StillLost++
		}
	}
	if n >= 0 && !tolerant {
		v.LenMismatch = n != len(m.acked) && n != postLen
	}
	return v
}

// structure runs the model-free checks on every shard: the invariants
// (first failure) and the count of silently misplaced records.
func structure(db *spash.DB, s *spash.Session) (misplaced int, err error) {
	for i, ix := range db.Indexes() {
		if e := ix.CheckInvariants(s.ShardCtx(i)); e != nil && err == nil {
			err = fmt.Errorf("shard %d: %w", i, e)
		}
		misplaced += ix.CheckPlacement(s.ShardCtx(i))
	}
	return misplaced, err
}

// census cross-checks the live-entry counter against a full iteration
// (only meaningful once the pool is readable: clean or repaired).
func census(db *spash.DB, s *spash.Session) (int, error) {
	n := 0
	if err := s.ForEach(func(k, v []byte) bool { n++; return true }); err != nil {
		return 0, err
	}
	if n != db.Len() {
		return n, fmt.Errorf("iteration found %d entries, counter says %d", n, db.Len())
	}
	return n, nil
}
