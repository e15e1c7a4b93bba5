package harness

import (
	"fmt"
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

// updateRun is the update-only zipfian phase of Fig 12(a) and the
// hotspot sweep: a fresh Spash with cfg, bulk-loaded with YCSBLoad
// valSize-byte records, then YCSBOps updates.
func updateRun(cfg core.Config, s Scale, valSize int, seed int64) (Result, error) {
	ix, err := mustOpen(SpashEntry("Spash", 1, cfg), s)
	if err != nil {
		return Result{}, err
	}
	LoadIndex(ix, s.MaxThreads, s.YCSBLoad, valSize, false)
	return Run("update", ix, s.MaxThreads, s.YCSBOps/s.MaxThreads, false,
		MixSource(ycsb.UpdateOnly, uint64(s.YCSBLoad), ycsb.DefaultTheta, valSize, seed), nil), nil
}

// fig12a reproduces Fig 12(a): the adaptive in-place update ablation —
// adaptive vs always-flush vs never-flush vs oracle-hotness, across
// value sizes, on update-only zipfian workloads.
func fig12a(sh *Sheet) []panel {
	s := sh.scale
	policies := []core.UpdatePolicy{core.UpdateAdaptive, core.UpdateAlwaysFlush, core.UpdateNeverFlush, core.UpdateOracle}
	sizes := []int{8, 64, 256, 1024}
	return []panel{{fmt.Sprintf("Fig 12(a): update-policy ablation (Mops/s, update-only zipf 0.99, %d workers)", s.MaxThreads),
		append([]string{"policy"}, labels("%dB", sizes)...),
		[]string{"adaptive", "in-place w/ flush", "in-place w/o flush", "adaptive (oracle)"},
		func(r, c int) value {
			return mops(measured(sh, func() (Result, error) {
				cfg := core.Config{Update: policies[r]}
				if policies[r] == core.UpdateOracle {
					hot := oracleHotHashes(uint64(s.YCSBLoad), 8192, sizes[c])
					cfg.OracleHot = func(h uint64) bool {
						_, ok := hot[h]
						return ok
					}
				}
				return updateRun(cfg, s, sizes[c], 811)
			}, "12a", r, c))
		}}}
}

// fig12b reproduces Fig 12(b): the compacted-flush insertion ablation
// on insert-only uniform workloads with small out-of-line records.
func fig12b(sh *Sheet) []panel {
	s := sh.scale
	policies := []core.InsertPolicy{core.InsertCompactedFlush, core.InsertNoCompact, core.InsertCompactNoFlush}
	return []panel{{fmt.Sprintf("Fig 12(b): insertion ablation (insert-only uniform, 16B keys / 64B values, %d workers)", s.MaxThreads),
		[]string{"policy", "Mops/s", "XPLine-writes/op"},
		[]string{"compacted-flush", "no-compaction", "compacted w/o flush"},
		func(r, c int) value {
			res := measured(sh, func() (Result, error) {
				ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{Insert: policies[r]}), s)
				if err != nil {
					return Result{}, err
				}
				return LoadIndex(ix, s.MaxThreads, s.YCSBOps, 64, false), nil
			}, "12b", r)
			if c == 0 {
				return mops(res)
			}
			return num(res.PerOp(res.Mem.XPLineWrites))
		}}}
}

// fig12c reproduces Fig 12(c): the concurrency-protocol ablation — the
// HTM two-phase protocol against the per-segment write-lock (Dash
// style) and write+read-lock (Level style) variants.
func fig12c(sh *Sheet) []panel {
	head := []string{"variant"}
	for _, m := range ycsbMixes {
		head = append(head, m.Name())
	}
	return []panel{ycsbPanel(sh, fmt.Sprintf("Fig 12(c): concurrency-protocol ablation (Mops/s, inlined KV, zipf 0.99, %d workers)", sh.scale.MaxThreads),
		head, []Entry{
			SpashEntry("Spash (HTM)", 1, core.Config{Concurrency: core.ModeHTM}),
			SpashEntry("Spash (w/ write lock)", 1, core.Config{Concurrency: core.ModeWriteLock}),
			SpashEntry("Spash (w/ write & read lock)", 1, core.Config{Concurrency: core.ModeRWLock}),
		}, 8, 901)}
}

// fig12d reproduces Fig 12(d): search throughput under different
// pipeline depths and worker counts.
func fig12d(sh *Sheet) []panel {
	s := sh.scale
	depths := []int{1, 2, 4, 8}
	return []panel{{"Fig 12(d): pipeline depth (search-only Mops/s, uniform)",
		append([]string{"pipeline depth"}, labels("%dthr", s.Threads)...), labels("PD=%d", depths),
		func(r, c int) value {
			th := s.Threads[c]
			return mops(measured(sh, func() (Result, error) {
				ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{PipelineDepth: depths[r]}), s)
				if err != nil {
					return Result{}, err
				}
				LoadIndex(ix, th, s.MicroLoad, 8, true)
				return Run("search", ix, th, s.MicroOps/th, true,
					uniformSource(ycsb.OpSearch, uint64(s.MicroLoad), 404), nil), nil
			}, "12d", depths[r], th))
		}}}
}

// table1 validates the adaptive flush policy matrix (Table I): for
// each (hotness, size) cell it measures PM media writes per update
// under both strategies, confirming the paper's chosen policy.
func table1(sh *Sheet) []panel {
	choice := []string{"w/o flush", "w/o flush", "w/o flush", "w/ flush"}
	return []panel{{"Table I validation: XPLine writes per update (flush vs no-flush)",
		[]string{"hotness/size", "w/ flush", "w/o flush", "paper's choice"},
		[]string{"hot / 8B", "hot / 256B", "cold / 8B", "cold / 256B"},
		func(r, c int) value {
			if c == 2 {
				return value{text: choice[r]}
			}
			return num(measured(sh, func() (float64, error) {
				return table1Writes(sh.scale, r < 2, []int{8, 256}[r%2], c == 0), nil
			}, "table1", r, c))
		}}}
}

// table1Writes is XPLine writes per size-byte update from 56 workers on
// a raw device, to a hot (≪ cache) or cold (≫ cache) working set, with
// or without flush + fence after each.
func table1Writes(s Scale, hot bool, size int, flush bool) float64 {
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
	return float64(pool.Stats().XPLineWrites) / float64(workers*ops)
}

// extDoubling is an extension experiment beyond the paper's figures,
// quantifying the claim of §IV-B that collaborative staged doubling
// "significantly improve[s] the overall throughput and reduce[s] the
// tail latency" compared with a traditional stop-the-world directory
// doubling. An insert-heavy run crosses several doublings;
// per-operation virtual latencies are sampled.
func extDoubling(sh *Sheet) []panel {
	s := sh.scale
	type run struct {
		res  Result
		hist *LatencyHist
	}
	percentiles := []float64{50, 99, 99.9, 100}
	return []panel{{fmt.Sprintf("Extension: staged vs monolithic directory doubling (insert-only, %d workers)", s.MaxThreads),
		[]string{"doubling", "Mops/s", "p50", "p99", "p99.9", "max"},
		[]string{"collaborative staged (paper)", "monolithic stop-the-world"},
		func(r, c int) value {
			d := measured(sh, func() (run, error) {
				ix, err := mustOpen(SpashEntry("Spash", 1, core.Config{InitialDepth: 2, MonolithicResize: r == 1}), s)
				if err != nil {
					return run{}, err
				}
				per := s.MicroOps / s.MaxThreads
				hist := &LatencyHist{}
				return run{Run("insert", ix, s.MaxThreads, per, false, insertSource(0, per), hist), hist}, nil
			}, "ext-doubling", r)
			if c == 0 {
				return mops(d.res)
			}
			ns := d.hist.Percentile(percentiles[c-1])
			return value{float64(ns), fmt.Sprintf("%dns", ns)}
		}}}
}

// extHotspot is an extension experiment: the paper fixes the hotspot
// detector at 8K entries (p=12 partitions bits, q=2 keys per partition,
// §VI-D) and claims a small list suffices. This sweep varies both knobs
// on the update-only zipfian workload.
func extHotspot(sh *Sheet) []panel {
	qs := []int{1, 2, 4}
	ps := []int{8, 12, 16}
	head := []string{"q \\ p"}
	for _, p := range ps {
		head = append(head, fmt.Sprintf("p=%d (%d entries)", p, (1<<p)*2))
	}
	return []panel{{fmt.Sprintf("Extension: hotspot detector sizing (Mops/s, update-only zipf 0.99, 256B values, %d workers)", sh.scale.MaxThreads),
		head, labels("q=%d", qs),
		func(r, c int) value {
			return mops(measured(sh, func() (Result, error) {
				return updateRun(core.Config{HotspotPartitionBits: ps[c], HotKeysPerPartition: qs[r]}, sh.scale, 256, 977)
			}, "ext-hotspot", r, c))
		}}}
}

// extEADR is an extension experiment quantifying the paper's motivation
// end to end: Spash on its eADR platform (persistent CPU cache + HTM)
// versus the same index forced into a legacy-ADR discipline
// (per-segment locks, flush + fence after every write, out-of-place
// flushed insertions) — what the index would have to do on a platform
// whose cache is volatile.
func extEADR(sh *Sheet) []panel {
	return []panel{ycsbPanel(sh, fmt.Sprintf("Extension: eADR+HTM vs legacy-ADR discipline (Mops/s, zipf 0.99, %d workers)", sh.scale.MaxThreads),
		append([]string{"configuration"}, ycsbPhases...), []Entry{
			SpashEntry("Spash (eADR + HTM)", 1, core.Config{}),
			SpashEntry("Spash (legacy ADR: locks + flush/fence)", 1, core.Config{
				Concurrency:    core.ModeWriteLock,
				Update:         core.UpdateAlwaysFlush,
				Insert:         core.InsertNoCompact,
				PersistBarrier: true,
			}),
		}, 64, 1100)}
}

// extIntegrity is an extension experiment pricing the self-verifying
// segment layout (Config.Checksums, default off): per-segment CRC32C
// seals are verified before every guarded segment access and resealed
// after every mutation, so the insert path pays the full
// read-verify/update/reseal cycle while lookups pay verification only.
// The row pair measures the identical workload with seals off and on;
// the closing row gives the measured relative cost per phase — the
// number an operator trades against detection of silent media
// corruption.
func extIntegrity(sh *Sheet) []panel {
	entries := []Entry{
		SpashEntry("Spash (seals off, default)", 1, core.Config{}),
		SpashEntry("Spash (seals on)", 1, core.Config{Checksums: true}),
	}
	tags := []string{"-seals-off", "-seals-on"}
	row := func(i int) []Result { return sh.ycsb(entries[i], 64, 1300, tags[i]) }
	return []panel{{fmt.Sprintf("Extension: checksum-seal overhead (Mops/s, zipf 0.99, 64B values, %d workers)", sh.scale.MaxThreads),
		append([]string{"configuration", "Load(insert)"}, ycsbPhases[1:]...),
		append(names(entries), "seal overhead"),
		func(r, c int) value {
			if r < len(entries) {
				return mops(row(r)[c])
			}
			off, on := row(0)[c].Throughput(), row(1)[c].Throughput()
			over := 0.0
			if off > 0 {
				over = 100 * (off - on) / off
			}
			return value{over, fmt.Sprintf("%.1f%%", over)}
		}}}
}
