package harness

import (
	"fmt"

	"spash"
	"spash/internal/core"
	"spash/internal/ixapi"
	"spash/internal/pmem"
)

// spashIndex is the Spash under test: the public spash.DB, so the
// figures measure the path users call. It is the only adapter between
// Spash and ixapi.Index in the tree. Len, LoadFactor, Groups and
// ExportSources (ixapi.Observed) are the DB's own methods.
type spashIndex struct {
	*spash.DB
	name string
}

// SpashEntry is the one Spash constructor: every Spash row of every
// figure — the paper's index, its ablation variants and the sharded
// extension — is this with a different core.Config or shard count.
// shards is always explicit; 1 is the monolithic index of Figs 7-12.
// The platform handed to Open describes the whole database and is
// divided among the shards (shard.SplitPlatform), so an n-shard index
// consumes the same total pool a monolithic one would.
func SpashEntry(name string, shards int, cfg core.Config) Entry {
	return Entry{
		Name: name,
		// The lock-mode ablations run one call per request, as the
		// lock-based designs they stand for do.
		Pipeline: cfg.PipelineDepth != 1 && cfg.Concurrency == core.ModeHTM,
		Open: func(platform pmem.Config) (ixapi.Index, error) {
			db, err := spash.Open(spash.Options{Platform: platform, Index: cfg, Shards: shards})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			return spashIndex{DB: db, name: name}, nil
		},
	}
}

func (x spashIndex) Name() string        { return x.name }
func (x spashIndex) Pools() []*pmem.Pool { return x.Platforms() }

// NewWorker implements ixapi.Index with a Session; Insert, Update,
// Delete, ExecBatch (ixapi.Batcher) and Close are the Session's own.
func (x spashIndex) NewWorker() ixapi.Worker {
	return spashWorker{Session: x.Session(), shards: x.Shards()}
}

type spashWorker struct {
	*spash.Session
	shards int
}

func (w spashWorker) Search(key, dst []byte) ([]byte, bool, error) { return w.Get(key, dst) }

func (w spashWorker) ResetClock() {
	for i := 0; i < w.shards; i++ {
		w.ShardCtx(i).ResetClock()
	}
}

func (w spashWorker) Clock() int64 {
	var total int64
	for i := 0; i < w.shards; i++ {
		total += w.ShardCtx(i).Clock()
	}
	return total
}
