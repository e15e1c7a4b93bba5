package harness

import (
	"encoding/binary"
	"fmt"

	"spash/internal/ycsb"
)

// microPhases runs the paper's micro-benchmark sequence (§VI-B) on a
// fresh index: preload, then insert / search / update / delete phases,
// returning one Result per phase keyed by op name.
func microPhases(e Entry, s Scale, workers int) (map[string]Result, error) {
	ix, err := mustOpen(e, s)
	if err != nil {
		return nil, err
	}
	LoadIndex(ix, workers, s.MicroLoad, 8, e.Pipeline)
	per := s.MicroOps / workers
	if per == 0 {
		per = 1
	}
	out := make(map[string]Result, 4)

	// Insert fresh keys above the preloaded range.
	out["insert"] = Run("insert", ix, workers, per, false,
		insertSource(uint64(s.MicroLoad), per), nil)
	total := uint64(s.MicroLoad + workers*per)
	out["search"] = Run("search", ix, workers, per, e.Pipeline,
		uniformSource(ycsb.OpSearch, total, 101), nil)
	out["update"] = Run("update", ix, workers, per, false,
		uniformSource(ycsb.OpUpdate, total, 202), nil)
	// Delete exactly the keys this phase's workers inserted.
	out["delete"] = Run("delete", ix, workers, per, false,
		func(id int) func(i int) Op {
			kb := make([]byte, 8)
			start := uint64(s.MicroLoad) + uint64(id)*uint64(per)
			return func(i int) Op {
				binary.LittleEndian.PutUint64(kb, start+uint64(i))
				return Op{Kind: ycsb.OpDelete, Key: kb}
			}
		}, nil)
	return out, nil
}

// micro is the micro-benchmark sequence of e with workers workers.
func (sh *Sheet) micro(e Entry, workers int) map[string]Result {
	return measured(sh, func() (map[string]Result, error) { return microPhases(e, sh.scale, workers) },
		"micro", e.Name, workers)
}

// fig7 reproduces Fig 7: single-operation throughput versus worker
// count for every index (uniform distribution, inline 8B-8B entries).
func fig7(sh *Sheet) []panel {
	threads := sh.scale.Threads
	roster := MicroRoster()
	var ps []panel
	for i, op := range []string{"search", "insert", "update", "delete"} {
		ps = append(ps, panel{fmt.Sprintf("Fig 7(%c): %s throughput (Mops/s, uniform)", 'a'+i, op),
			append([]string{"index"}, labels("%dthr", threads)...), names(roster),
			func(r, c int) value { return mops(sh.micro(roster[r], threads[c])[op]) }})
	}
	return ps
}

// fig8 reproduces Fig 8: the average number of XPLine and cacheline
// accesses to PM per operation (single worker, counting only).
func fig8(sh *Sheet) []panel {
	roster := distinctRoster()
	perOp := func(title, dir string, ops ...string) panel {
		head := []string{"index"}
		for _, op := range ops {
			head = append(head, op+" CL-"+dir, op+" XP-"+dir)
		}
		return panel{title, head, names(roster), func(r, c int) value {
			res := sh.micro(roster[r], 1)[ops[c/2]]
			m := res.Mem
			if dir == "rd" {
				return num(res.PerOp([2]uint64{m.CachelineReads, m.XPLineReads}[c%2]))
			}
			return num(res.PerOp([2]uint64{m.CachelineWrites, m.XPLineWrites}[c%2]))
		}}
	}
	return []panel{
		perOp("Fig 8(a): avg PM reads per operation", "rd", "search", "update"),
		perOp("Fig 8(b): avg PM writes per operation", "wr", "insert", "update", "delete"),
	}
}

// fig9 reproduces Fig 9: load factor versus the number of inserted
// entries (insert-only, single worker; Halo is excluded as in the
// paper).
func fig9(sh *Sheet) []panel {
	const checkpoints = 10
	roster := distinctRoster()
	step := sh.scale.MicroLoad / checkpoints
	rows := make([]string, checkpoints)
	for cp := range rows {
		rows[cp] = fmt.Sprint((cp + 1) * step)
	}
	return []panel{{"Fig 9: load factor vs inserted entries", append([]string{"entries"}, names(roster)...), rows,
		func(r, c int) value {
			e := roster[c]
			return num(measured(sh, func() ([]float64, error) { return loadFactors(e, sh.scale, step, checkpoints) },
				"fig9", e.Name)[r])
		}}}
}

// loadFactors inserts step keys at a time into a fresh e with one
// worker, sampling the load factor after each of checkpoints steps.
func loadFactors(e Entry, s Scale, step, checkpoints int) ([]float64, error) {
	ix, err := mustOpen(e, s)
	if err != nil {
		return nil, err
	}
	wk := ix.NewWorker()
	defer wk.Close()
	kb := make([]byte, 8) // the value is the key
	var lfs []float64
	for cp := 0; cp < checkpoints; cp++ {
		for i := 0; i < step; i++ {
			binary.LittleEndian.PutUint64(kb, uint64(cp*step+i))
			if err := wk.Insert(kb, kb); err != nil {
				return nil, err
			}
		}
		lfs = append(lfs, ix.LoadFactor())
	}
	return lfs, nil
}
