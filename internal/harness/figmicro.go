package harness

import (
	"encoding/binary"
	"fmt"
	"io"

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

// Fig7 reproduces Fig 7: single-operation throughput versus worker
// count for every index (uniform distribution, inline 8B-8B entries).
func Fig7(w io.Writer, s Scale) error {
	ops := []string{"search", "insert", "update", "delete"}
	roster := MicroRoster()

	// results[op][entry][threads]
	results := make(map[string]map[string]map[int]Result)
	for _, op := range ops {
		results[op] = make(map[string]map[int]Result)
		for _, e := range roster {
			results[op][e.Name] = make(map[int]Result)
		}
	}
	for _, e := range roster {
		for _, th := range s.Threads {
			phases, err := microPhases(e, s, th)
			if err != nil {
				return err
			}
			for _, op := range ops {
				results[op][e.Name][th] = phases[op]
			}
		}
	}

	for fi, op := range ops {
		cols := []string{"index"}
		for _, th := range s.Threads {
			cols = append(cols, fmt.Sprintf("%dthr", th))
		}
		t := newTable(fmt.Sprintf("Fig 7(%c): %s throughput (Mops/s, uniform)", 'a'+fi, op), cols...)
		for _, e := range roster {
			cells := []string{e.Name}
			for _, th := range s.Threads {
				cells = append(cells, mops(results[op][e.Name][th]))
			}
			t.row(cells...)
		}
		t.write(w)
	}
	return nil
}

// Fig8 reproduces Fig 8: the average number of XPLine and cacheline
// accesses to PM per operation (single worker, counting only).
func Fig8(w io.Writer, s Scale) error {
	roster := MicroRoster()
	ta := newTable("Fig 8(a): avg PM reads per operation",
		"index", "search CL-rd", "search XP-rd", "update CL-rd", "update XP-rd")
	tb := newTable("Fig 8(b): avg PM writes per operation",
		"index", "insert CL-wr", "insert XP-wr", "update CL-wr", "update XP-wr", "delete CL-wr", "delete XP-wr")
	for _, e := range roster {
		if e.Name == "Spash-noPipe" {
			continue // identical access counts to Spash
		}
		phases, err := microPhases(e, s, 1)
		if err != nil {
			return err
		}
		se, up, in, de := phases["search"], phases["update"], phases["insert"], phases["delete"]
		ta.row(e.Name,
			f2(se.PerOp(se.Mem.CachelineReads)), f2(se.PerOp(se.Mem.XPLineReads)),
			f2(up.PerOp(up.Mem.CachelineReads)), f2(up.PerOp(up.Mem.XPLineReads)))
		tb.row(e.Name,
			f2(in.PerOp(in.Mem.CachelineWrites)), f2(in.PerOp(in.Mem.XPLineWrites)),
			f2(up.PerOp(up.Mem.CachelineWrites)), f2(up.PerOp(up.Mem.XPLineWrites)),
			f2(de.PerOp(de.Mem.CachelineWrites)), f2(de.PerOp(de.Mem.XPLineWrites)))
	}
	ta.write(w)
	tb.write(w)
	return nil
}

// Fig9 reproduces Fig 9: load factor versus the number of inserted
// entries (insert-only, single worker; Halo is excluded as in the
// paper).
func Fig9(w io.Writer, s Scale) error {
	const checkpoints = 10
	roster := MicroRoster()
	cols := []string{"entries"}
	for _, e := range roster {
		if e.Name == "Spash-noPipe" {
			continue
		}
		cols = append(cols, e.Name)
	}
	t := newTable("Fig 9: load factor vs inserted entries", cols...)

	lfs := make(map[string][]float64)
	for _, e := range roster {
		if e.Name == "Spash-noPipe" {
			continue
		}
		ix, err := mustOpen(e, s)
		if err != nil {
			return err
		}
		wk := ix.NewWorker()
		kb := make([]byte, 8)
		vb := make([]byte, 8)
		step := s.MicroLoad / checkpoints
		for cp := 0; cp < checkpoints; cp++ {
			for i := 0; i < step; i++ {
				id := uint64(cp*step + i)
				binary.LittleEndian.PutUint64(kb, id)
				binary.LittleEndian.PutUint64(vb, id)
				if err := wk.Insert(kb, vb); err != nil {
					return err
				}
			}
			lfs[e.Name] = append(lfs[e.Name], ix.LoadFactor())
		}
		wk.Close()
	}
	for cp := 0; cp < checkpoints; cp++ {
		cells := []string{fmt.Sprintf("%d", (cp+1)*(s.MicroLoad/checkpoints))}
		for _, e := range roster {
			if e.Name == "Spash-noPipe" {
				continue
			}
			cells = append(cells, f2(lfs[e.Name][cp]))
		}
		t.row(cells...)
	}
	t.write(w)
	return nil
}
