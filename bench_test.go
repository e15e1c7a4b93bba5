package spash

// Conventional per-operation microbenchmarks of the public Session
// API, in real time per op. The per-figure and per-index benchmarks
// (BenchmarkFigure/<id>, BenchmarkIndex/<name>) live in
// internal/harness, over its constructor table.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

func benchDB(b *testing.B) (*DB, *Session) {
	b.Helper()
	cfg := DefaultPlatform()
	cfg.PoolSize = 512 << 20
	db, err := Open(Options{Platform: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return db, db.Session()
}

func bkey(buf []byte, v uint64) []byte {
	binary.LittleEndian.PutUint64(buf, v)
	return buf[:8]
}

func BenchmarkInsert(b *testing.B) {
	_, s := benchDB(b)
	kb := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(bkey(kb, uint64(i)), bkey(kb, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	_, s := benchDB(b)
	const n = 100000
	kb := make([]byte, 8)
	vb := make([]byte, 8)
	for i := uint64(0); i < n; i++ {
		binary.LittleEndian.PutUint64(vb, i)
		s.Insert(bkey(kb, i), vb)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// vb is reused as the result buffer: 0 allocs/op.
		if _, ok, _ := s.Get(bkey(kb, rng.Uint64()%n), vb[:0]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSearchPipelined(b *testing.B) {
	_, s := benchDB(b)
	const n = 100000
	kb := make([]byte, 8)
	for i := uint64(0); i < n; i++ {
		s.Insert(bkey(kb, i), bkey(kb, i))
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 256)
	bufs := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = make([]byte, 8)
		bufs[i] = make([]byte, 0, 8)
	}
	ops := make([]Op, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ops) {
		for j := range ops {
			binary.LittleEndian.PutUint64(keys[j], rng.Uint64()%n)
			ops[j] = Op{Kind: OpGet, Key: keys[j], ResultBuf: bufs[j]}
		}
		s.ExecBatch(ops)
	}
}

// The cold pair: uniform reads of 250 k × 16 B keys / 64 B values, all
// out of line (about 50 MB of records, slots and simulator state — past
// any host cache), one at a time and in batches of 64. Same requests,
// same engine work; the difference is what ExecBatch's pipeline overlaps
// on the wall clock.
const coldRecords = 250000

func coldDB(b *testing.B) *Session {
	_, s := benchDB(b)
	val := make([]byte, 64)
	for i := 0; i < coldRecords; i++ {
		if err := s.Insert(coldKey(nil, i), val); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// coldKey writes id's key, "user%012d", into dst: with strconv, because
// fmt boxes its operand and the benchmark would count that allocation
// as the read path's.
func coldKey(dst []byte, id int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(id), 10)
	dst = append(dst[:0], "user"...)
	for i := len(d); i < 12; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

func TestColdKeyMatchesItsFormat(t *testing.T) {
	for _, id := range []int{0, 7, 123456, coldRecords - 1, 999999999999} {
		if got, want := string(coldKey(make([]byte, 16), id)), fmt.Sprintf("user%012d", id); got != want {
			t.Errorf("coldKey(%d) = %q, want %q", id, got, want)
		}
	}
}

func BenchmarkGetCold(b *testing.B) {
	s := coldDB(b)
	rng := rand.New(rand.NewSource(1))
	kb, vb := make([]byte, 16), make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := s.Get(coldKey(kb, rng.Intn(coldRecords)), vb); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkExecBatchCold(b *testing.B) {
	s := coldDB(b)
	rng := rand.New(rand.NewSource(1))
	ops := make([]Op, 64)
	keys, bufs := make([][]byte, len(ops)), make([][]byte, len(ops))
	for i := range ops {
		keys[i], bufs[i] = make([]byte, 16), make([]byte, 0, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ops) {
		for j := range ops {
			ops[j] = Op{Kind: OpGet, Key: coldKey(keys[j], rng.Intn(coldRecords)), ResultBuf: bufs[j]}
		}
		s.ExecBatch(ops)
		if !ops[0].Found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkUpdateHot(b *testing.B) {
	_, s := benchDB(b)
	const n = 100000
	kb := make([]byte, 8)
	vb := make([]byte, 8)
	for i := uint64(0); i < n; i++ {
		s.Insert(bkey(kb, i), bkey(kb, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(vb, uint64(i))
		// A tiny hot set: the adaptive policy serves these in cache.
		if _, err := s.Update(bkey(kb, uint64(i%16)), vb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	_, s := benchDB(b)
	kb := make([]byte, 8)
	for i := uint64(0); i < uint64(b.N); i++ {
		s.Insert(bkey(kb, i), bkey(kb, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := s.Delete(bkey(kb, uint64(i))); !ok {
			b.Fatal("miss")
		}
	}
}
