package harness

import (
	"fmt"
	"io"

	"spash/internal/core"
	"spash/internal/ycsb"
)

// shardCounts is the partition-count axis of the shard-scaling figure;
// spash-bench overrides it via -shards.
var shardCounts = []int{1, 2, 4, 8}

// SetShardCounts overrides the shard-count axis of FigShards (the
// -shards flag of spash-bench). An empty list keeps the default.
func SetShardCounts(list []int) {
	if len(list) > 0 {
		shardCounts = list
	}
}

// shardThreads is the thread axis: it extends past Scale.MaxThreads to
// 4× (224 at the default scale, the paper's top thread count), because
// the bounds sharding removes — single-device write bandwidth and
// hottest-stripe commit serialisation — only bind once enough workers
// drive the aggregate.
func shardThreads(s Scale) []int {
	m := s.MaxThreads
	low := m / 4
	if low < 1 {
		low = 1
	}
	return []int{low, m, 2 * m, 4 * m}
}

// FigShards measures the sharding extension: aggregate throughput of
// an N-way partitioned Spash versus shard count and thread count.
//
// Panel (a) is insert-only (fresh keys, compacted-flush path): every
// insert reaches PM media, so a monolithic index saturates its single
// device's write bandwidth as threads grow, while N shards write to N
// devices — the bound is the hottest device, and aggregate throughput
// scales until the next constraint binds. Panel (b) is the balanced
// zipfian mix, where per-shard HTM domains spread warm keys across
// independent version-stripe tables. The HTM-abort and media-write
// tables underneath show the mechanism: per-cell abort counts and
// media traffic behind the throughput numbers.
func FigShards(w io.Writer, s Scale) error {
	type cell struct {
		res    Result
		aborts int64
		wbytes uint64
	}
	threads := shardThreads(s)
	// insert[n][th], mixed[n][th]
	insert := make(map[int]map[int]cell)
	mixed := make(map[int]map[int]cell)

	for _, n := range shardCounts {
		insert[n] = make(map[int]cell)
		mixed[n] = make(map[int]cell)
		for ti, th := range threads {
			name := fmt.Sprintf("Spash-%dsh", n)
			// Fresh index per cell: inserts grow the table, so reuse
			// would skew later cells.
			ix, err := mustOpen(SpashEntry(name, n, core.Config{}), s)
			if err != nil {
				return err
			}
			src, _ := Observe(ix)
			prev := src.Snapshot()
			r := Run(fmt.Sprintf("insert[s=%d,t=%d]", n, th), ix, th, s.YCSBOps/th, false,
				insertSource(0, s.YCSBOps/th), nil)
			now := src.Snapshot()
			d := now.Sub(prev)
			insert[n][th] = cell{res: r,
				aborts: d.HTM.Conflicts + d.HTM.Capacities + d.HTM.Explicits,
				wbytes: d.Mem.MediaWriteBytes()}

			prev = now
			r = Run(fmt.Sprintf("balanced[s=%d,t=%d]", n, th), ix, th, s.YCSBOps/th, true,
				MixSource(ycsb.Balanced, uint64(s.YCSBOps), ycsb.DefaultTheta, 8, int64(1109+ti)), nil)
			now = src.Snapshot()
			d = now.Sub(prev)
			mixed[n][th] = cell{res: r,
				aborts: d.HTM.Conflicts + d.HTM.Capacities + d.HTM.Explicits,
				wbytes: d.Mem.MediaWriteBytes()}
		}
	}

	cols := []string{"threads"}
	for _, n := range shardCounts {
		cols = append(cols, fmt.Sprintf("%dsh", n))
	}
	panel := func(title string, cells map[int]map[int]cell, f func(cell) string) {
		t := newTable(title, cols...)
		for _, th := range threads {
			row := []string{fmt.Sprintf("%d", th)}
			for _, n := range shardCounts {
				row = append(row, f(cells[n][th]))
			}
			t.row(row...)
		}
		t.write(w)
	}
	panel("Shard scaling (a): insert-only throughput (Mops/s)", insert,
		func(c cell) string { return mops(c.res) })
	panel(fmt.Sprintf("Shard scaling (b): balanced(50/50) zipf %.2f throughput (Mops/s)", ycsb.DefaultTheta),
		mixed, func(c cell) string { return mops(c.res) })
	panel("Shard scaling: insert bound per cell", insert,
		func(c cell) string { return c.res.Bound })
	panel("Shard scaling: HTM aborts per cell, balanced run", mixed,
		func(c cell) string { return fmt.Sprintf("%d", c.aborts) })
	panel("Shard scaling: PM media writes per cell, insert run (MB, all devices)", insert,
		func(c cell) string { return fmt.Sprintf("%.1f", float64(c.wbytes)/(1<<20)) })
	return nil
}
