package repl_test

// Reference models for the two frame logs. Each test drives one side
// through a seeded random walk of every transition its log has and,
// after every step, compares what the exported surface shows — which
// frames a handshake ships, SpillDepth, Lag, LagBytes, the cursors,
// which calls shed typed — with a naive slice-and-map model written
// from the protocol's rules rather than from the implementation.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spash"
	"spash/internal/obs"
	"spash/internal/repl"
)

// strictPeer is a scripted Transport standing in for a replica that
// never parks: it takes a record frame only at cursor+1, acks
// duplicates, refuses anything ahead with ErrReplicaLag (what a
// rejoined replica does), and re-anchors on a Replace segment frame.
// It records every frame handed to it while up, and loses the
// acknowledgement of the next ackLoss of them.
type strictPeer struct {
	down    bool
	cursor  uint64
	reseed  bool
	ackLoss int
	got     []string
}

func frameID(f *repl.Frame) string {
	if f.Kind == repl.FrameSegment {
		return fmt.Sprintf("seg%d@%d", f.Shard, f.Seq)
	}
	return fmt.Sprintf("rec@%d", f.Seq)
}

func (p *strictPeer) Ship(f *repl.Frame) error {
	if p.down {
		return fmt.Errorf("peer: outage: %w", spash.ErrTransportTimeout)
	}
	p.got = append(p.got, frameID(f))
	switch {
	case f.Kind == repl.FrameSegment && f.Replace:
		p.cursor, p.reseed = max(p.cursor, f.Seq), false
	case p.reseed:
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard, Err: spash.ErrNeedsReseed}
	case f.Seq > p.cursor+1:
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard, Err: spash.ErrReplicaLag}
	case f.Seq == p.cursor+1:
		p.cursor++
	}
	if p.ackLoss > 0 {
		p.ackLoss--
		return fmt.Errorf("peer: ack lost: %w", spash.ErrTransportTimeout)
	}
	return nil
}

func (p *strictPeer) Fetch(repl.FetchReq) ([]repl.KV, error) { return nil, nil }

func (p *strictPeer) Hello() (repl.Hello, error) {
	if p.down {
		return repl.Hello{}, fmt.Errorf("peer: outage: %w", spash.ErrTransportTimeout)
	}
	return repl.Hello{Epoch: 1, AppliedSeq: p.cursor, NeedsReseed: p.reseed}, nil
}

// primaryModel is the naive reference for the primary's log: the
// retained record sequences as a slice plus a membership map.
type primaryModel struct {
	shards   int
	log      []uint64
	retained map[uint64]bool
	seq      uint64
	acked    uint64
	closed   bool
}

func (m *primaryModel) owed() int {
	n := 0
	for _, s := range m.log {
		if s > m.acked {
			n++
		}
	}
	return n
}

// appendFrame retains the next sequence and reports whether doing so
// pushed an unacknowledged frame out of the full log.
func (m *primaryModel) appendFrame() (shed bool) {
	m.seq++
	m.log = append(m.log, m.seq)
	m.retained[m.seq] = true
	if len(m.log) > repl.PrimaryLogFrames {
		shed = m.log[0] > m.acked
		delete(m.retained, m.log[0])
		m.log = m.log[1:]
	}
	return shed
}

// sync is a full image: the log restarts empty above the segment
// frames' own sequence numbers.
func (m *primaryModel) sync() (ships []string) {
	for i := 0; i < m.shards; i++ {
		m.seq++
		ships = append(ships, fmt.Sprintf("seg%d@%d", i, m.seq))
	}
	m.log, m.retained = nil, map[uint64]bool{}
	return ships
}

// catchUp is one handshake against a peer that is up: what ships, and
// how many owed frames that delivers.
func (m *primaryModel) catchUp(peer *strictPeer) (ships []string, drained int) {
	cursor := min(peer.cursor, m.seq)
	m.acked = max(m.acked, cursor)
	covered := true
	for s := cursor + 1; s <= m.seq; s++ {
		covered = covered && m.retained[s]
	}
	if peer.reseed || !covered {
		ships = m.sync()
	} else {
		for s := cursor + 1; s <= m.seq; s++ {
			ships = append(ships, fmt.Sprintf("rec@%d", s))
			if s > m.acked {
				drained++
			}
		}
	}
	m.acked, m.closed = m.seq, true
	return ships, drained
}

func TestPrimaryLogMatchesModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			peer := &strictPeer{}
			pdb, err := spash.Open(testOpts(2))
			if err != nil {
				t.Fatal(err)
			}
			defer pdb.Close()
			prim, err := repl.NewPrimaryWith(pdb, peer,
				repl.PrimaryOptions{Retry: fastRetry(2), ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer prim.Close()
			m := &primaryModel{shards: 2, retained: map[uint64]bool{}, closed: true}
			rng := rand.New(rand.NewSource(seed))
			var sheds, reseeds, replays, refusals int

			// write is one client write and everything it must cause.
			write := func() {
				k := key64(uint64(rng.Intn(512)))
				shed := m.appendFrame()
				var want []string
				switch {
				case !m.closed:
				case peer.down:
					m.closed = false
				case !peer.reseed && peer.cursor+1 == m.seq:
					want = []string{fmt.Sprintf("rec@%d", m.seq)}
					if peer.ackLoss > 0 { // delivered on every attempt, never acknowledged
						want = append(want, want[0])
						m.closed = false
					} else {
						m.acked = m.seq
					}
				default: // cursor refusal: one catch-up pass, this frame included
					refusals++
					want = []string{fmt.Sprintf("rec@%d", m.seq)}
					ships, _ := m.catchUp(peer)
					want = append(want, ships...)
				}
				peer.got = nil
				err := prim.Insert(k, key64(m.seq))
				if shed {
					sheds++
					var re *spash.ReplicationError
					if !errors.Is(err, spash.ErrRetryExhausted) || !errors.As(err, &re) {
						t.Fatalf("seq %d: shedding write returned %v, want typed ErrRetryExhausted", m.seq, err)
					}
				} else if err != nil {
					t.Fatalf("seq %d: write: %v", m.seq, err)
				}
				sameShips(t, fmt.Sprintf("write seq %d", m.seq), peer.got, want)
			}
			// handshake is TryDrain or Resync.
			handshake := func(resync bool) {
				var want []string
				wantDrained, wantErr := 0, false
				switch {
				case !resync && m.closed: // a closed breaker owes nothing
				case peer.down:
					wantErr, m.closed = true, false
				default:
					before := m.seq
					want, wantDrained = m.catchUp(peer)
					if m.seq != before {
						reseeds++
					} else {
						replays += len(want) - wantDrained
					}
				}
				peer.got = nil
				var drained int
				var err error
				if resync {
					err = prim.Resync()
					wantDrained = 0
				} else {
					drained, err = prim.TryDrain()
				}
				if (err != nil) != wantErr || drained != wantDrained {
					t.Fatalf("handshake(resync=%v): drained %d err %v, want %d err=%v",
						resync, drained, err, wantDrained, wantErr)
				}
				sameShips(t, "handshake", peer.got, want)
			}

			for step := 0; step < 500; step++ {
				switch r := rng.Intn(100); {
				case r < 40:
					for n := 1 + rng.Intn(40); n > 0; n-- {
						write()
					}
				case r < 44: // long enough to overflow the log when nothing is acknowledged
					for n := repl.PrimaryLogFrames/2 + rng.Intn(repl.PrimaryLogFrames); n > 0; n-- {
						write()
					}
				case r < 47: // the peer takes the frame but every ack is lost
					if m.closed && !peer.down && !peer.reseed && peer.cursor == m.seq {
						peer.ackLoss = 2
						write()
					}
				case r < 58:
					peer.down = !peer.down
				case r < 78:
					handshake(rng.Intn(2) == 0)
				case r < 84: // the peer rejoined having lost acknowledged frames
					peer.cursor = uint64(rng.Int63n(int64(peer.cursor) + 1))
				case r < 86: // ... or just the last few
					peer.cursor -= min(peer.cursor, uint64(rng.Intn(8)))
				case r < 88: // ... or everything up to the log's very edge
					if len(m.log) > 0 && m.log[0] >= 2 { // base, base-1 (just covered) or base-2 (just not)
						peer.cursor = min(peer.cursor, m.log[0]-uint64(rng.Intn(3)))
					}
				case r < 91: // ... or rolled back under its cursor (ADR)
					peer.reseed = true
				default:
					before := m.seq
					want := m.sync()
					if peer.down {
						want, m.closed = nil, false
					} else {
						m.acked, m.closed = m.seq, true
					}
					peer.got = nil
					_, err := prim.FullSync()
					if (err != nil) != peer.down {
						t.Fatalf("FullSync with peer down=%v: %v", peer.down, err)
					}
					sameShips(t, fmt.Sprintf("FullSync from seq %d", before), peer.got, want)
				}
				if got, want := prim.SpillDepth(), m.owed(); got != want {
					t.Fatalf("step %d: SpillDepth = %d, model owes %d", step, got, want)
				}
				if st, _ := prim.Breaker(); (st == repl.BreakerClosed) != m.closed {
					t.Fatalf("step %d: breaker %v, model closed=%v", step, st, m.closed)
				}
				if got := pdb.Obs().GaugeValue(obs.GReplSpillDepth); got != int64(m.owed()) {
					t.Fatalf("step %d: repl_spill_depth = %d, model owes %d", step, got, m.owed())
				}
				var shedCount int64
				for _, ix := range pdb.Indexes() {
					shedCount += ix.Obs().Counters()[obs.CounterNames[obs.CReplSpillSheds]]
				}
				if shedCount != int64(sheds) {
					t.Fatalf("step %d: repl_spill_sheds = %d, model shed %d", step, shedCount, sheds)
				}
			}
			if sheds == 0 || reseeds == 0 || replays == 0 || refusals == 0 {
				t.Fatalf("walk too tame: sheds %d reseeds %d replays %d refusals %d",
					sheds, reseeds, replays, refusals)
			}
		})
	}
}

func sameShips(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: shipped %d frames %v, want %d %v", what, len(got), clip(got), len(want), clip(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: frame %d shipped is %s, want %s", what, i, got[i], want[i])
		}
	}
}

func clip(s []string) []string {
	if len(s) > 8 {
		return append(append([]string{}, s[:4]...), "...", s[len(s)-1])
	}
	return s
}

// replicaModel is the naive reference for the replica's pending log:
// a map from sequence to frame, the two cursors, and the applied image.
type replicaModel struct {
	applied, next uint64
	pending       map[uint64]*repl.Frame
	paused, fresh bool
	kv            map[string]string
}

func (m *replicaModel) apply(f *repl.Frame) {
	switch {
	case f.Kind == repl.FrameSegment:
		for k := range m.kv {
			if spash.ShardOf([]byte(k), 2) == f.Shard {
				delete(m.kv, k)
			}
		}
		for _, kv := range f.KVs {
			m.kv[string(kv.Key)] = string(kv.Val)
		}
	case f.Op == repl.RecDelete:
		delete(m.kv, string(f.Key))
	default:
		m.kv[string(f.Key)] = string(f.Val)
	}
	m.applied = max(m.applied, f.Seq)
}

// drain applies what Pause held back, then every parked frame the
// cursor reaches.
func (m *replicaModel) drain() {
	var held []uint64
	for s := range m.pending {
		if s <= m.next {
			held = append(held, s)
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
	for _, s := range held {
		m.apply(m.pending[s])
		delete(m.pending, s)
	}
	for m.pending[m.next+1] != nil {
		m.next++
		m.apply(m.pending[m.next])
		delete(m.pending, m.next)
	}
}

// offer is the model's Apply: whether the frame is acknowledged (nil
// return) or refused with ErrReplicaLag.
func (m *replicaModel) offer(f *repl.Frame) (acked bool) {
	anchor := f.Kind == repl.FrameSegment
	ahead := f.Seq > m.next+1 && !anchor
	switch {
	case f.Seq <= m.next, m.pending[f.Seq] != nil:
		return true
	case ahead && m.fresh:
		return false
	case (ahead || m.paused) && len(m.pending) >= repl.ReplicaLogFrames:
		return false
	case ahead:
		m.pending[f.Seq] = f
		return true
	}
	if anchor {
		for s := range m.pending {
			if s > m.next && s < f.Seq {
				delete(m.pending, s) // parked below it: subsumed
			}
		}
	}
	m.fresh, m.next = false, f.Seq
	if m.paused {
		m.pending[f.Seq] = f
	} else {
		m.apply(f)
		m.drain()
	}
	return true
}

func (m *replicaModel) lagBytes() int {
	n := 0
	for _, f := range m.pending {
		n += len(f.Key) + len(f.Val)
		for _, kv := range f.KVs {
			n += len(kv.Key) + len(kv.Val)
		}
	}
	return n
}

func TestReplicaLogMatchesModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, rep := pair(t, 2)
			m := &replicaModel{pending: map[uint64]*repl.Frame{}, fresh: true, kv: map[string]string{}}
			rng := rand.New(rand.NewSource(seed))
			var sheds, dupes, parked, anchors, rejoins int

			record := func(seq uint64) *repl.Frame {
				k := key64(uint64(rng.Intn(256)))
				f := &repl.Frame{Kind: repl.FrameRecord, Epoch: 1, Seq: seq,
					Shard: spash.ShardOf(k, 2), Op: repl.RecInsert, Key: k,
					Val: key64(uint64(rng.Int63()))[:1+rng.Intn(8)]}
				if rng.Intn(4) == 0 {
					f.Op, f.Val = repl.RecDelete, nil
				}
				return f
			}
			offer := func(f *repl.Frame) {
				want := m.offer(f)
				err := rep.Apply(f)
				if want && err != nil {
					t.Fatalf("frame %d: %v, model acknowledges", f.Seq, err)
				}
				if !want {
					var re *spash.ReplicationError
					if !errors.Is(err, spash.ErrReplicaLag) || !errors.As(err, &re) {
						t.Fatalf("frame %d: %v, model refuses with typed ErrReplicaLag", f.Seq, err)
					}
					if !m.fresh {
						sheds++
					}
				}
			}
			image := func(check bool) {
				if got, want := rep.DB().Len(), len(m.kv); got != want {
					t.Fatalf("replica holds %d keys, model %d", got, want)
				}
				if !check {
					return
				}
				rs := rep.DB().Session()
				defer rs.Close()
				for k, v := range m.kv {
					got, found, err := rs.Get([]byte(k), nil)
					if err != nil || !found || string(got) != v {
						t.Fatalf("key %x: found=%v err=%v value %x, model %x", k, found, err, got, v)
					}
				}
			}

			for step := 0; step < 1200; step++ {
				switch r := rng.Intn(100); {
				case r < 45:
					offer(record(m.next + 1))
				case r < 57: // duplicate: at or below the cursor, or already pending
					seq := uint64(rng.Int63n(int64(m.next) + 1))
					for s := range m.pending {
						if rng.Intn(2) == 0 {
							seq = s
						}
						break
					}
					dupes++
					offer(record(seq))
				case r < 72: // ahead of a gap
					if !m.fresh {
						parked++
					}
					offer(record(m.next + 2 + uint64(rng.Intn(12))))
				case r < 78:
					m.paused = true
					rep.Pause()
				case r < 86:
					m.drain()
					m.paused = false
					if err := rep.Resume(); err != nil {
						t.Fatalf("Resume: %v", err)
					}
					image(false)
				case r < 88: // paused long enough to fill the log
					m.paused = true
					rep.Pause()
					for n := repl.ReplicaLogFrames + rng.Intn(64); n > 0; n-- {
						offer(record(m.next + 1))
					}
				case r < 96: // re-anchor over a gap: an authoritative image of one shard
					anchors++
					f := &repl.Frame{Kind: repl.FrameSegment, Epoch: 1, Replace: true,
						Seq: m.next + 1 + uint64(rng.Intn(6)), Shard: rng.Intn(2)}
					for i := 0; i < 8; i++ {
						k := key64(uint64(rng.Intn(256)))
						if spash.ShardOf(k, 2) == f.Shard {
							f.KVs = append(f.KVs, repl.KV{Key: k, Val: key64(f.Seq)})
						}
					}
					offer(f)
				default: // eADR power cycle: applied state survives, the log does not
					rejoins++
					m.pending, m.paused, m.fresh = map[uint64]*repl.Frame{}, false, true
					m.next = m.applied
					if err := rep.Rejoin(testOpts(2)); err != nil {
						t.Fatalf("Rejoin: %v", err)
					}
					image(true)
				}
				if got, want := rep.Lag(), len(m.pending); got != want {
					t.Fatalf("step %d: Lag = %d, model holds %d", step, got, want)
				}
				if got, want := rep.LagBytes(), m.lagBytes(); got != want {
					t.Fatalf("step %d: LagBytes = %d, model %d", step, got, want)
				}
				if got := rep.AppliedSeq(); got != m.applied {
					t.Fatalf("step %d: applied cursor = %d, model %d", step, got, m.applied)
				}
				var recs, bytes int64
				for _, ix := range rep.DB().Indexes() {
					recs += ix.Obs().GaugeValue(obs.GReplLagRecords)
					bytes += ix.Obs().GaugeValue(obs.GReplLagBytes)
				}
				if recs != int64(len(m.pending)) || bytes != int64(m.lagBytes()) {
					t.Fatalf("step %d: lag gauges %d records / %d bytes, model %d / %d",
						step, recs, bytes, len(m.pending), m.lagBytes())
				}
			}
			m.drain()
			if err := rep.Resume(); err != nil {
				t.Fatalf("final Resume: %v", err)
			}
			image(true)
			if sheds == 0 || dupes == 0 || parked == 0 || anchors == 0 || rejoins == 0 {
				t.Fatalf("walk too tame: sheds %d dupes %d parked %d anchors %d rejoins %d",
					sheds, dupes, parked, anchors, rejoins)
			}
		})
	}
}
