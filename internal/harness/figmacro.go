package harness

import (
	"fmt"
	"io"

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

// mopsCells renders a label followed by each phase's throughput.
func mopsCells(label string, row []Result) []string {
	cells := []string{label}
	for _, r := range row {
		cells = append(cells, mops(r))
	}
	return cells
}

// Fig10 reproduces Fig 10: YCSB throughput with inlined 8B key-value
// entries — the load phase plus the three search/update mixtures under
// a zipfian(0.99) distribution.
func Fig10(w io.Writer, s Scale) error {
	t := newTable(fmt.Sprintf("Fig 10: YCSB, inlined KV (Mops/s, zipf 0.99, %d workers)", s.MaxThreads),
		append([]string{"index"}, ycsbPhases...)...)
	for _, e := range MacroRoster() {
		row, err := ycsbRow(e, s, 8, 303, "")
		if err != nil {
			return err
		}
		t.row(mopsCells(e.Name, row)...)
	}
	t.write(w)
	return nil
}

// Fig11 reproduces Fig 11: YCSB with 16-byte keys and variable-sized
// values (compacted-flush insertion and adaptive in-place updates at
// work).
func Fig11(w io.Writer, s Scale) error {
	for _, valSize := range []int{16, 64, 256, 1024} {
		t := newTable(fmt.Sprintf("Fig 11: YCSB, 16B keys / %dB values (Mops/s, zipf 0.99, %d workers)", valSize, s.MaxThreads),
			append([]string{"index"}, ycsbPhases...)...)
		for _, e := range MacroRoster() {
			row, err := ycsbRow(e, s, valSize, 707, "")
			if err != nil {
				return err
			}
			t.row(mopsCells(e.Name, row)...)
		}
		t.write(w)
	}
	return nil
}
