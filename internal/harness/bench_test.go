package harness

import (
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// BenchmarkFigure regenerates one figure or table of the paper's
// evaluation per iteration at small scale (use cmd/spash-bench for the
// full medium/large-scale tables).
func BenchmarkFigure(b *testing.B) {
	for _, f := range []struct {
		name string
		run  func(io.Writer, Scale) error
	}{
		{"1", Fig1}, {"7", Fig7}, {"8", Fig8}, {"9", Fig9}, {"10", Fig10}, {"11", Fig11},
		{"12a", Fig12a}, {"12b", Fig12b}, {"12c", Fig12c}, {"12d", Fig12d}, {"table1", Table1},
	} {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.run(io.Discard, ScaleSmall); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndex compares real time per search and per update across
// the indexes of the constructor table, through one worker each.
func BenchmarkIndex(b *testing.B) {
	for _, e := range MicroRoster() {
		if e.Name == "Spash-noPipe" {
			continue // one call per request: the same run as Spash
		}
		b.Run(e.Name, func(b *testing.B) { benchIndexOps(b, e) })
	}
}

func benchIndexOps(b *testing.B, e Entry) {
	ix, err := mustOpen(e, ScaleSmall)
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
