package spash

// Benchmark harness entry points: one testing.B benchmark per figure
// and table of the paper's evaluation (regenerated at small scale —
// use cmd/spash-bench for the full medium/large-scale tables), plus
// conventional per-operation microbenchmarks of the index itself.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"spash/internal/harness"
)

// --- per-operation microbenchmarks (real time per op) ---------------

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

func coldKey(dst []byte, id int) []byte {
	return fmt.Appendf(dst[:0], "user%012d", id)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := s.Delete(bkey(kb, uint64(i))); !ok {
			b.Fatal("miss")
		}
	}
}

// --- one benchmark per paper figure/table ---------------------------

// benchFigure runs a figure runner once per iteration at small scale.
func benchFigure(b *testing.B, run func(io.Writer, harness.Scale) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := run(io.Discard, harness.ScaleSmall); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1FlushStrategies(b *testing.B)  { benchFigure(b, harness.Fig1) }
func BenchmarkFig7Throughput(b *testing.B)       { benchFigure(b, harness.Fig7) }
func BenchmarkFig8PMAccesses(b *testing.B)       { benchFigure(b, harness.Fig8) }
func BenchmarkFig9LoadFactor(b *testing.B)       { benchFigure(b, harness.Fig9) }
func BenchmarkFig10YCSBInline(b *testing.B)      { benchFigure(b, harness.Fig10) }
func BenchmarkFig11YCSBVariable(b *testing.B)    { benchFigure(b, harness.Fig11) }
func BenchmarkFig12aUpdatePolicy(b *testing.B)   { benchFigure(b, harness.Fig12a) }
func BenchmarkFig12bCompactedFlush(b *testing.B) { benchFigure(b, harness.Fig12b) }
func BenchmarkFig12cConcurrency(b *testing.B)    { benchFigure(b, harness.Fig12c) }
func BenchmarkFig12dPipelineDepth(b *testing.B)  { benchFigure(b, harness.Fig12d) }
func BenchmarkTable1FlushPolicy(b *testing.B)    { benchFigure(b, harness.Table1) }

// --- comparative per-operation benchmarks across all indexes --------

func benchIndexOps(b *testing.B, e harness.Entry) {
	ix, err := e.New(harness.ScaleSmall.Platform())
	if err != nil {
		b.Fatal(err)
	}
	w := ix.NewWorker()
	defer w.Close()
	const preload = 50000
	kb := make([]byte, 8)
	for i := uint64(0); i < preload; i++ {
		binary.LittleEndian.PutUint64(kb, i)
		if err := w.Insert(kb, kb); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(kb, rng.Uint64()%preload)
			if _, ok, _ := w.Search(kb, nil); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("update", func(b *testing.B) {
		vb := make([]byte, 8)
		for i := 0; i < b.N; i++ {
			binary.LittleEndian.PutUint64(kb, rng.Uint64()%preload)
			binary.LittleEndian.PutUint64(vb, uint64(i))
			if ok, _ := w.Update(kb, vb); !ok {
				b.Fatal("miss")
			}
		}
	})
}

func BenchmarkIndexSpash(b *testing.B)  { benchIndexOps(b, harness.SpashEntry()) }
func BenchmarkIndexCCEH(b *testing.B)   { benchIndexOps(b, harness.MicroRoster()[2]) }
func BenchmarkIndexDash(b *testing.B)   { benchIndexOps(b, harness.MicroRoster()[3]) }
func BenchmarkIndexLevel(b *testing.B)  { benchIndexOps(b, harness.MicroRoster()[4]) }
func BenchmarkIndexCLevel(b *testing.B) { benchIndexOps(b, harness.MicroRoster()[5]) }
func BenchmarkIndexPlush(b *testing.B)  { benchIndexOps(b, harness.MicroRoster()[6]) }
