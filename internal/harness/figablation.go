package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"spash/internal/core"
	"spash/internal/hash"
	"spash/internal/pmem"
	"spash/internal/ycsb"
)

// oracleHotHashes precomputes the key-hash set of the k most popular
// scrambled-zipfian keys, in the key encoding used for valSize.
func oracleHotHashes(n uint64, k int, valSize int) map[uint64]struct{} {
	set := make(map[uint64]struct{}, k)
	kb := make([]byte, 16)
	for rank := uint64(0); int(rank) < k; rank++ {
		kid := hash.Sum64Uint64(rank) % n
		if valSize == 8 {
			set[hash.Sum64Uint64(kid)] = struct{}{}
		} else {
			set[hash.Sum64(ycsb.KeyBytes(kb, kid))] = struct{}{}
		}
	}
	return set
}

// Fig12a reproduces Fig 12(a): the adaptive in-place update ablation —
// adaptive vs always-flush vs never-flush vs oracle-hotness, across
// value sizes, on update-only zipfian workloads.
func Fig12a(w io.Writer, s Scale) error {
	variants := []struct {
		name   string
		policy core.UpdatePolicy
	}{
		{"adaptive", core.UpdateAdaptive},
		{"in-place w/ flush", core.UpdateAlwaysFlush},
		{"in-place w/o flush", core.UpdateNeverFlush},
		{"adaptive (oracle)", core.UpdateOracle},
	}
	sizes := []int{8, 64, 256, 1024}
	cols := []string{"policy"}
	for _, vs := range sizes {
		cols = append(cols, fmt.Sprintf("%dB", vs))
	}
	t := newTable(fmt.Sprintf("Fig 12(a): update-policy ablation (Mops/s, update-only zipf 0.99, %d workers)", s.MaxThreads), cols...)

	for _, v := range variants {
		cells := []string{v.name}
		for _, vs := range sizes {
			cfg := core.Config{Update: v.policy}
			if v.policy == core.UpdateOracle {
				hot := oracleHotHashes(uint64(s.YCSBLoad), 8192, vs)
				cfg.OracleHot = func(h uint64) bool {
					_, ok := hot[h]
					return ok
				}
			}
			ix, err := mustOpen(SpashEntry("Spash", 1, cfg), s)
			if err != nil {
				return err
			}
			LoadIndex(ix, s.MaxThreads, s.YCSBLoad, vs, false)
			r := Run("update", ix, s.MaxThreads, s.YCSBOps/s.MaxThreads, false,
				MixSource(ycsb.UpdateOnly, uint64(s.YCSBLoad), ycsb.DefaultTheta, vs, 811), nil)
			cells = append(cells, mops(r))
		}
		t.row(cells...)
	}
	t.write(w)
	return nil
}

// Fig12b reproduces Fig 12(b): the compacted-flush insertion ablation
// on insert-only uniform workloads with small out-of-line records.
func Fig12b(w io.Writer, s Scale) error {
	variants := []struct {
		name   string
		policy core.InsertPolicy
	}{
		{"compacted-flush", core.InsertCompactedFlush},
		{"no-compaction", core.InsertNoCompact},
		{"compacted w/o flush", core.InsertCompactNoFlush},
	}
	t := newTable(fmt.Sprintf("Fig 12(b): insertion ablation (insert-only uniform, 16B keys / 64B values, %d workers)", s.MaxThreads),
		"policy", "Mops/s", "XPLine-writes/op")
	for _, v := range variants {
		ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{Insert: v.policy}), s)
		if err != nil {
			return err
		}
		r := LoadIndex(ix, s.MaxThreads, s.YCSBOps, 64, false)
		t.row(v.name, mops(r), f2(r.PerOp(r.Mem.XPLineWrites)))
	}
	t.write(w)
	return nil
}

// Fig12c reproduces Fig 12(c): the concurrency-protocol ablation — the
// HTM two-phase protocol against the per-segment write-lock (Dash
// style) and write+read-lock (Level style) variants.
func Fig12c(w io.Writer, s Scale) error {
	variants := []struct {
		name string
		mode core.ConcurrencyMode
	}{
		{"Spash (HTM)", core.ModeHTM},
		{"Spash (w/ write lock)", core.ModeWriteLock},
		{"Spash (w/ write & read lock)", core.ModeRWLock},
	}
	cols := []string{"variant"}
	for _, m := range ycsbMixes {
		cols = append(cols, m.Name())
	}
	t := newTable(fmt.Sprintf("Fig 12(c): concurrency-protocol ablation (Mops/s, inlined KV, zipf 0.99, %d workers)", s.MaxThreads), cols...)
	for _, v := range variants {
		row, err := ycsbRow(SpashEntry(v.name, 1, core.Config{Concurrency: v.mode}), s, 8, 901, "")
		if err != nil {
			return err
		}
		t.row(mopsCells(v.name, row[1:])...) // no Load column
	}
	t.write(w)
	return nil
}

// Fig12d reproduces Fig 12(d): search throughput under different
// pipeline depths and worker counts.
func Fig12d(w io.Writer, s Scale) error {
	depths := []int{1, 2, 4, 8}
	cols := []string{"pipeline depth"}
	for _, th := range s.Threads {
		cols = append(cols, fmt.Sprintf("%dthr", th))
	}
	t := newTable("Fig 12(d): pipeline depth (search-only Mops/s, uniform)", cols...)
	for _, pd := range depths {
		cells := []string{fmt.Sprintf("PD=%d", pd)}
		for _, th := range s.Threads {
			ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{PipelineDepth: pd}), s)
			if err != nil {
				return err
			}
			LoadIndex(ix, th, s.MicroLoad, 8, true)
			r := Run("search", ix, th, s.MicroOps/th, true,
				uniformSource(ycsb.OpSearch, uint64(s.MicroLoad), 404), nil)
			cells = append(cells, mops(r))
		}
		t.row(cells...)
	}
	t.write(w)
	return nil
}

// Table1 validates the adaptive flush policy matrix (Table I): for
// each (hotness, size) cell it measures PM media writes per update
// under both strategies, confirming the paper's chosen policy.
func Table1(w io.Writer, s Scale) error {
	t := newTable("Table I validation: XPLine writes per update (flush vs no-flush)",
		"hotness/size", "w/ flush", "w/o flush", "paper's choice")

	run := func(hot bool, size int, flush bool) float64 {
		pool := pmem.New(pmem.Config{PoolSize: 256 << 20, CacheSize: s.CacheBytes})
		const workers = 56 // like Fig 1, defined at full parallelism
		ops := s.MicroOps / workers
		regions := uint64(200000) // cold working set ≫ cache
		if hot {
			regions = 64 // hot working set ≪ cache
		}
		stride := uint64((size + 255) &^ 255)
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := pool.NewCtx()
				defer c.Release()
				rng := rand.New(rand.NewSource(int64(id)))
				buf := make([]byte, size)
				for i := 0; i < ops; i++ {
					r := rng.Uint64() % regions
					addr := 4096 + r*stride
					//spash:allow pmstore -- raw write-ablation microbenchmark driving the pool directly; no index invariants are involved
					pool.Write(c, addr, buf)
					if flush {
						pool.Flush(c, addr, uint64(size))
						pool.Fence(c)
					}
				}
			}(id)
		}
		wg.Wait()
		st := pool.Stats()
		return float64(st.XPLineWrites) / float64(workers*ops)
	}

	cases := []struct {
		label  string
		hot    bool
		size   int
		choice string
	}{
		{"hot / 8B", true, 8, "w/o flush"},
		{"hot / 256B", true, 256, "w/o flush"},
		{"cold / 8B", false, 8, "w/o flush"},
		{"cold / 256B", false, 256, "w/ flush"},
	}
	for _, cse := range cases {
		t.row(cse.label, f2(run(cse.hot, cse.size, true)), f2(run(cse.hot, cse.size, false)), cse.choice)
	}
	t.write(w)
	return nil
}

// ExtDoublingTail is an extension experiment beyond the paper's
// figures, quantifying the claim of §IV-B that collaborative staged
// doubling "significantly improve[s] the overall throughput and
// reduce[s] the tail latency" compared with a traditional
// stop-the-world directory doubling. An insert-heavy run crosses
// several doublings; per-operation virtual latencies are sampled.
func ExtDoublingTail(w io.Writer, s Scale) error {
	t := newTable(fmt.Sprintf("Extension: staged vs monolithic directory doubling (insert-only, %d workers)", s.MaxThreads),
		"doubling", "Mops/s", "p50", "p99", "p99.9", "max")
	for _, v := range []struct {
		name string
		mono bool
	}{
		{"collaborative staged (paper)", false},
		{"monolithic stop-the-world", true},
	} {
		ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{InitialDepth: 2, MonolithicResize: v.mono}), s)
		if err != nil {
			return err
		}
		per := s.MicroOps / s.MaxThreads
		hist := &LatencyHist{}
		res := Run("insert", ix, s.MaxThreads, per, false,
			func(id int) func(i int) Op {
				kb := make([]byte, 8)
				vb := make([]byte, 8)
				start := uint64(id) * uint64(per)
				return func(i int) Op {
					k := start + uint64(i)
					for j := 0; j < 8; j++ {
						kb[j] = byte(k >> (8 * j))
						vb[j] = kb[j]
					}
					return Op{Kind: ycsb.OpInsert, Key: kb, Val: vb}
				}
			}, hist)
		t.row(v.name, mops(res),
			fmt.Sprintf("%dns", hist.Percentile(50)),
			fmt.Sprintf("%dns", hist.Percentile(99)),
			fmt.Sprintf("%dns", hist.Percentile(99.9)),
			fmt.Sprintf("%dns", hist.Max()))
	}
	t.write(w)
	return nil
}

// ExtHotspotSweep is an extension experiment: the paper fixes the
// hotspot detector at 8K entries (p=12 partitions bits, q=2 keys per
// partition, §VI-D) and claims a small list suffices. This sweep
// varies both knobs on the update-only zipfian workload.
func ExtHotspotSweep(w io.Writer, s Scale) error {
	qs := []int{1, 2, 4}
	ps := []int{8, 12, 16}
	cols := []string{"q \\ p"}
	for _, p := range ps {
		cols = append(cols, fmt.Sprintf("p=%d (%d entries)", p, (1<<p)*2))
	}
	t := newTable(fmt.Sprintf("Extension: hotspot detector sizing (Mops/s, update-only zipf 0.99, 256B values, %d workers)", s.MaxThreads), cols...)
	for _, q := range qs {
		cells := []string{fmt.Sprintf("q=%d", q)}
		for _, p := range ps {
			ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{
				HotspotPartitionBits: p,
				HotKeysPerPartition:  q,
			}), s)
			if err != nil {
				return err
			}
			LoadIndex(ix, s.MaxThreads, s.YCSBLoad, 256, false)
			r := Run("update", ix, s.MaxThreads, s.YCSBOps/s.MaxThreads, false,
				MixSource(ycsb.UpdateOnly, uint64(s.YCSBLoad), ycsb.DefaultTheta, 256, 977), nil)
			cells = append(cells, mops(r))
		}
		t.row(cells...)
	}
	t.write(w)
	return nil
}

// ExtEADRBenefit is an extension experiment quantifying the paper's
// motivation end to end: Spash on its eADR platform (persistent CPU
// cache + HTM) versus the same index forced into a legacy-ADR
// discipline (per-segment locks, flush + fence after every write,
// out-of-place flushed insertions) — what the index would have to do
// on a platform whose cache is volatile.
func ExtEADRBenefit(w io.Writer, s Scale) error {
	t := newTable(fmt.Sprintf("Extension: eADR+HTM vs legacy-ADR discipline (Mops/s, zipf 0.99, %d workers)", s.MaxThreads),
		append([]string{"configuration"}, ycsbPhases...)...)
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{
		{"Spash (eADR + HTM)", core.Config{}},
		{"Spash (legacy ADR: locks + flush/fence)", core.Config{
			Concurrency:    core.ModeWriteLock,
			Update:         core.UpdateAlwaysFlush,
			Insert:         core.InsertNoCompact,
			PersistBarrier: true,
		}},
	} {
		row, err := ycsbRow(SpashEntry(v.name, 1, v.cfg), s, 64, 1100, "")
		if err != nil {
			return err
		}
		t.row(mopsCells(v.name, row)...)
	}
	t.write(w)
	return nil
}

// ExtIntegrity is an extension experiment pricing the self-verifying
// segment layout (Config.Checksums, default off): per-segment CRC32C
// seals are verified before every guarded segment access and resealed
// after every mutation, so the insert path pays the full
// read-verify/update/reseal cycle while lookups pay verification only.
// The row pair measures the identical workload with seals off and on;
// the closing row gives the measured relative cost per phase — the
// number an operator trades against detection of silent media
// corruption.
func ExtIntegrity(w io.Writer, s Scale) error {
	phases := append([]string{"Load(insert)"}, ycsbPhases[1:]...)
	t := newTable(fmt.Sprintf("Extension: checksum-seal overhead (Mops/s, zipf 0.99, 64B values, %d workers)", s.MaxThreads),
		append([]string{"configuration"}, phases...)...)
	var rows [2][]Result
	for vi, v := range []struct {
		name string
		tag  string
		cfg  core.Config
	}{
		{"Spash (seals off, default)", "-seals-off", core.Config{}},
		{"Spash (seals on)", "-seals-on", core.Config{Checksums: true}},
	} {
		row, err := ycsbRow(SpashEntry(v.name, 1, v.cfg), s, 64, 1300, v.tag)
		if err != nil {
			return err
		}
		t.row(mopsCells(v.name, row)...)
		rows[vi] = row
	}
	cells := []string{"seal overhead"}
	for i := range phases {
		off, on := rows[0][i].Throughput(), rows[1][i].Throughput()
		over := 0.0
		if off > 0 {
			over = 100 * (off - on) / off
		}
		cells = append(cells, fmt.Sprintf("%.1f%%", over))
	}
	t.row(cells...)
	t.write(w)
	return nil
}
