package harness

import (
	"fmt"

	"spash/internal/core"
	"spash/internal/ycsb"
)

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

// figShards measures the sharding extension: aggregate throughput of
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
func figShards(sh *Sheet) []panel {
	s := sh.scale
	threads := shardThreads(s)
	type run struct {
		res    Result
		aborts int64
		wbytes uint64
	}
	// runs is the insert run and then the balanced run of one cell.
	runs := func(n, ti int) [2]run {
		th := threads[ti]
		return measured(sh, func() ([2]run, error) {
			// Fresh index per cell: inserts grow the table, so reuse
			// would skew later cells.
			ix, err := mustOpen(SpashEntry(fmt.Sprintf("Spash-%dsh", n), n, core.Config{}), s)
			if err != nil {
				return [2]run{}, err
			}
			src, _ := Observe(ix)
			per := s.YCSBOps / th
			phase := func(name string, pipeline bool, ops OpSource) run {
				prev := src.Snapshot()
				r := Run(fmt.Sprintf("%s[s=%d,t=%d]", name, n, th), ix, th, per, pipeline, ops, nil)
				d := src.Snapshot().Sub(prev)
				return run{r, d.HTM.Conflicts + d.HTM.Capacities + d.HTM.Explicits, d.Mem.MediaWriteBytes()}
			}
			return [2]run{phase("insert", false, insertSource(0, per)),
				phase("balanced", true, MixSource(ycsb.Balanced, uint64(s.YCSBOps), ycsb.DefaultTheta, 8, int64(1109+ti)))}, nil
		}, "shards", n, th)
	}
	head := append([]string{"threads"}, labels("%dsh", sh.shards)...)
	grid := func(title string, phase int, f func(run) value) panel {
		return panel{title, head, labels("%d", threads), func(r, c int) value { return f(runs(sh.shards[c], r)[phase]) }}
	}
	return []panel{
		grid("Shard scaling (a): insert-only throughput (Mops/s)", 0, func(x run) value { return mops(x.res) }),
		grid(fmt.Sprintf("Shard scaling (b): balanced(50/50) zipf %.2f throughput (Mops/s)", ycsb.DefaultTheta), 1,
			func(x run) value { return mops(x.res) }),
		grid("Shard scaling: insert bound per cell", 0, func(x run) value { return value{text: x.res.Bound} }),
		grid("Shard scaling: HTM aborts per cell, balanced run", 1,
			func(x run) value { return value{float64(x.aborts), fmt.Sprint(x.aborts)} }),
		grid("Shard scaling: PM media writes per cell, insert run (MB, all devices)", 0, func(x run) value {
			mb := float64(x.wbytes) / (1 << 20)
			return value{mb, fmt.Sprintf("%.1f", mb)}
		}),
	}
}
