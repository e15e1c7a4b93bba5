package harness

import (
	"fmt"

	"spash/internal/ycsb"
)

// ycsbMixes are the run-phase mixtures of §VI-C.
var ycsbMixes = []ycsb.Mix{ycsb.ReadIntensive, ycsb.Balanced, ycsb.WriteIntensive}

// ycsbPhases are the column labels of a ycsbRow, load phase first.
var ycsbPhases = []string{"Load", "read-int(90/10)", "balanced(50/50)", "write-int(10/90)"}

// ycsbRow is the macro-benchmark of §VI-C on one fresh index: bulk-load
// YCSBLoad records of valSize-byte values with MaxThreads workers, then
// run the three search/update mixtures under zipfian(0.99), mixture mi
// seeded seed+mi. It returns the four phases in ycsbPhases order; tag
// suffixes the recorded phase names.
func ycsbRow(e Entry, s Scale, valSize int, seed int64, tag string) ([]Result, error) {
	ix, err := mustOpen(e, s)
	if err != nil {
		return nil, err
	}
	per := s.YCSBLoad / s.MaxThreads
	row := []Result{Run("load"+tag, ix, s.MaxThreads, per, false, LoadSource(per, valSize), nil)}
	for mi, mix := range ycsbMixes {
		row = append(row, Run(mix.Name()+tag, ix, s.MaxThreads, s.YCSBOps/s.MaxThreads, e.Pipeline,
			MixSource(mix, uint64(s.YCSBLoad), ycsb.DefaultTheta, valSize, seed+int64(mi)), nil))
	}
	return row, nil
}

// ycsb is ycsbRow of e, measured once per sheet.
func (sh *Sheet) ycsb(e Entry, valSize int, seed int64, tag string) []Result {
	return measured(sh, func() ([]Result, error) { return ycsbRow(e, sh.scale, valSize, seed, tag) },
		"ycsb", e.Name, valSize, seed, tag)
}

// ycsbPanel is a panel of ycsbRow throughputs, one row per entry. head
// is the row-label header and then either every phase or, one shorter,
// the three mixtures without the load phase.
func ycsbPanel(sh *Sheet, title string, head []string, entries []Entry, valSize int, seed int64) panel {
	skip := len(ycsbPhases) + 1 - len(head)
	return panel{title, head, names(entries), func(r, c int) value {
		return mops(sh.ycsb(entries[r], valSize, seed, "")[skip+c])
	}}
}

// fig10 reproduces Fig 10: YCSB throughput with inlined 8B key-value
// entries — the load phase plus the three search/update mixtures under
// a zipfian(0.99) distribution.
func fig10(sh *Sheet) []panel {
	return []panel{ycsbPanel(sh, fmt.Sprintf("Fig 10: YCSB, inlined KV (Mops/s, zipf 0.99, %d workers)", sh.scale.MaxThreads),
		append([]string{"index"}, ycsbPhases...), MacroRoster(), 8, 303)}
}

// fig11 reproduces Fig 11: YCSB with 16-byte keys and variable-sized
// values (compacted-flush insertion and adaptive in-place updates at
// work).
func fig11(sh *Sheet) []panel {
	var ps []panel
	for _, valSize := range []int{16, 64, 256, 1024} {
		ps = append(ps, ycsbPanel(sh, fmt.Sprintf("Fig 11: YCSB, 16B keys / %dB values (Mops/s, zipf 0.99, %d workers)", valSize, sh.scale.MaxThreads),
			append([]string{"index"}, ycsbPhases...), MacroRoster(), valSize, 707))
	}
	return ps
}
