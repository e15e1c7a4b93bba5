package main

import (
	"bytes"
	"encoding/binary"

	"spash/internal/ycsb"
)

// rng is splitmix64: allocation-free and seedable per (seed, workload,
// rep, worker), so any rep's op stream can be regenerated on its own.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// seedFor folds the parts into one well-mixed seed.
func seedFor(seed int64, parts ...uint64) uint64 {
	r := rng(seed)
	x := r.next()
	for _, p := range parts {
		r = rng(x ^ p*0xD6E8FEB86659FD93)
		x = r.next()
	}
	return x
}

type opKind uint8

const (
	opGet opKind = iota
	opUpdate
	opInsert // in-process: a fresh key; wire: SET of an existing key
	opDelete
	numOpKinds
)

// op is one request of a stream. absent says the oracle expects the key
// not to be there.
type op struct {
	kind   opKind
	id     uint64
	absent bool
}

// keyspace maps key ids to keys and well-formed values. base moves the
// whole key population with the seed. Ids [0, records) are loaded at
// set-up; in-process inserts use ids from 2*records up, one residue class
// per worker, so workers never touch each other's fresh keys and the
// oracle is exact; ids [records, 2*records) are never stored.
type keyspace struct {
	inline  bool
	base    uint64
	records uint64
}

func newKeyspace(sp spec, seed int64) keyspace {
	return keyspace{inline: sp.inline, base: seedFor(seed, 0x6b657973) % (1 << 40), records: uint64(sp.records)}
}

const inlineMask = 1<<48 - 1

// key appends id's key to dst[:0]: 8 bytes below 2^48 (stored in the
// slot, the paper's micro-benchmark layout) or ycsb's 16-byte key.
func (ks keyspace) key(dst []byte, id uint64) []byte {
	if ks.inline {
		return binary.LittleEndian.AppendUint64(dst[:0], (ks.base+id+1)&inlineMask)
	}
	return ycsb.KeyBytes(dst, ks.base+id)
}

// value fills dst (8 or 64 bytes) with the value writer stamp writes for
// id. A 64-byte value is stamp | ycsb.FillValue(id); an inline value has
// no room for a stamp and is a function of the id alone.
func (ks keyspace) value(dst []byte, id, stamp uint64) []byte {
	if ks.inline {
		return binary.LittleEndian.AppendUint64(dst[:0], ((ks.base+id)*0x9E3779B97F4A7C15+1)&inlineMask)
	}
	dst = dst[:64]
	binary.LittleEndian.PutUint64(dst, stamp)
	ycsb.FillValue(dst[8:], ks.base+id)
	return dst
}

// wellFormed reports whether got is a value some writer could have
// stored for id. scratch must hold 64 bytes.
func (ks keyspace) wellFormed(got []byte, id uint64, scratch []byte) bool {
	want := ks.value(scratch, id, 0)
	if ks.inline {
		return bytes.Equal(got, want)
	}
	return len(got) == 64 && bytes.Equal(got[8:], want[8:])
}

// stream generates one worker's requests. The fresh-key window
// [head, tail) persists across reps; the random source is reseeded per
// rep.
type stream struct {
	mix     mix
	keys    uint64
	cold    uint64 // one loaded id in cold comes from all of [0, records); 0: none
	records uint64
	worker  uint64
	workers uint64
	r       rng
	zipf    *ycsb.Scrambled // nil: uniform
	// Fresh key j of this worker has id 2*records + worker + workers*j;
	// j in [head, tail) is live, j < head deleted.
	head, tail uint64
}

func newStream(sp spec, worker int, zipf *ycsb.Scrambled) *stream {
	return &stream{mix: sp.mix, keys: uint64(sp.keys), cold: uint64(sp.coldEvery), records: uint64(sp.records),
		worker: uint64(worker), workers: uint64(sp.workers), zipf: zipf}
}

// reseed starts rep's request sequence.
func (s *stream) reseed(seed int64, workload, rep int) {
	x := seedFor(seed, uint64(workload), uint64(rep), s.worker)
	s.r = rng(x)
	if s.zipf != nil {
		s.zipf = s.zipf.Fork(int64(x >> 1))
	}
}

func (s *stream) freshID(j uint64) uint64 { return 2*s.records + s.worker + s.workers*j }

func (s *stream) loadedID() uint64 {
	if s.zipf != nil {
		return s.zipf.Next()
	}
	x := s.r.next() >> 11
	if s.cold > 0 && x%s.cold == 0 {
		return (x / s.cold) % s.records
	}
	return x % s.keys
}

func (s *stream) next() op {
	x := s.r.next()
	p := int(x % 100)
	x >>= 8
	m := s.mix
	switch {
	case p < m.get:
		sub := int(x % 100)
		x >>= 8
		switch {
		case sub < m.absentGets:
			return op{kind: opGet, id: s.records + x%s.records, absent: true}
		case m.del > 0 && sub < m.absentGets+5 && s.tail > s.head:
			return op{kind: opGet, id: s.freshID(s.head + x%(s.tail-s.head))}
		case m.del > 0 && sub < m.absentGets+10 && s.head > 0:
			return op{kind: opGet, id: s.freshID(x % s.head), absent: true}
		}
		return op{kind: opGet, id: s.loadedID()}
	case p < m.get+m.update:
		return op{kind: opUpdate, id: s.loadedID()}
	case p >= m.get+m.update+m.insert && s.tail > s.head:
		s.head++
		return op{kind: opDelete, id: s.freshID(s.head - 1)}
	case m.del > 0:
		// A fresh key — also what a delete turns into while this
		// worker has nothing of its own left to delete.
		s.tail++
		return op{kind: opInsert, id: s.freshID(s.tail - 1)}
	}
	return op{kind: opInsert, id: s.loadedID()}
}
