// The arm tables: every linear drill is a row.
package crashtest

import (
	"strings"

	"spash"
	"spash/internal/core"
	"spash/internal/pmem"
)

// options is the configuration every row shares: each of the n shards
// gets a small pool and cache (evictions keep the media image honest,
// so ADR runs exhibit the mixed durable/rolled-back images real crashes
// produce), HTM mode, and a shallow initial directory so structural
// growth — splits, staged doubling — happens inside the script.
func options(n int, mode pmem.Mode, index core.Config) spash.Options {
	index.InitialDepth, index.Concurrency = 1, core.ModeHTM
	return spash.Options{
		Shards: n,
		Platform: pmem.Config{
			PoolSize:  uint64(n) * (4 << 20),
			CacheSize: 64 << 10,
			Mode:      mode,
		},
		Index: index,
	}
}

// ByName returns the row called name.
func ByName(table []Drill, name string) Drill {
	for _, d := range table {
		if d.Name == name {
			return d
		}
	}
	panic("crashtest: no drill named " + name)
}

// Arms is the crash matrix: a persistence domain crossed with the
// flush policies under test, one shard, the default script, held to
// the exact oracle at every crash step. The ADR row is the gap the
// paper predicts: unflushed acknowledged writes sit in the volatile
// cache and roll back, so it must fail at some steps.
func Arms() []Drill {
	row := func(name string, mode pmem.Mode, ins core.InsertPolicy, upd core.UpdatePolicy) Drill {
		return Drill{Name: name, Script: DefaultScript(),
			Opts: options(1, mode, core.Config{Insert: ins, Update: upd})}
	}
	return []Drill{
		row("eadr-compacted-adaptive", pmem.EADR, core.InsertCompactedFlush, core.UpdateAdaptive),
		row("eadr-nocompact-always", pmem.EADR, core.InsertNoCompact, core.UpdateAlwaysFlush),
		row("eadr-compactnoflush-never", pmem.EADR, core.InsertCompactNoFlush, core.UpdateNeverFlush),
		row("adr-compacted-adaptive", pmem.ADR, core.InsertCompactedFlush, core.UpdateAdaptive),
	}
}

// ShardedArms are the multi-shard power-fault rows: the step counter
// sits on one shard's device, the siblings are cut quiescent, recovery
// fans out through spash.RecoverAll and the oracle runs over the full
// cross-shard key universe — an acknowledged operation must survive
// whichever device it landed on.
func ShardedArms() []Drill {
	row := func(name string, n int, mode pmem.Mode, target int, script Script) Drill {
		return Drill{Name: name, Opts: options(n, mode, core.Config{}), Target: target, Script: script}
	}
	return []Drill{
		row("eadr-4sh", 4, pmem.EADR, 0, SeededScript(7, 160)),
		row("eadr-1sh", 1, pmem.EADR, 0, SeededScript(11, 100)),   // one shard must behave exactly like the monolithic database
		row("adr-4sh", 4, pmem.ADR, 0, SeededScript(7, 160)),      // the §II-C gap, multi-shard
		row("eadr-4sh-t3", 4, pmem.EADR, 3, SeededScript(7, 160)), // the cut on the last device; shard 0 is a quiescent sibling
	}
}

// FillArms run FillScript on one 2 MB pool, which the script fills to
// exhaustion, then updates, deletes and re-inserts on; they are the only
// rows marked Fill, so the only ones whose writes may be refused with
// ErrNoSpace. eADR is held to
// the exact oracle at every crash step — a refused write is not
// acknowledged, every acknowledged one survives. ADR recovers and lets
// fsck repair, under the history-tolerant oracle: a rollback of unflushed
// lines may cost acknowledged writes, never a wrong value, a segment
// repair gives up on or a broken invariant.
func FillArms() []Drill {
	const pool = 2 << 20
	row := func(mode pmem.Mode) Drill {
		adr := mode == pmem.ADR
		d := Drill{Name: modeName(mode) + "-fill", Script: FillScript(pool),
			Opts: options(1, mode, core.Config{Checksums: adr}), Repair: adr, Fill: true}
		d.Opts.Platform.PoolSize = pool
		return d
	}
	return []Drill{row(pmem.EADR), row(pmem.ADR)}
}

// FailoverArm kills a two-shard primary mid-operation and promotes the
// replica every acknowledged write was shipped to.
func FailoverArm() Drill {
	return Drill{Name: "failover-2sh", Opts: options(2, pmem.EADR, core.Config{}),
		Script: SeededScript(7, 160), Peer: &Peer{Promote: true}}
}

// MediaArms is the {eADR, ADR} × {bitflip, torn, poison} matrix: the
// default script runs to completion, power is cut with the damage
// armed, fsck repairs. Checksums are always on — the oracle tests
// detection, and without seals bit rot is undetectable by construction
// — and budgets are multi-fault so one trial exercises several
// quarantines. The eADR torn row is the paper's persistence claim made
// executable: reserve energy completes every write-back, so the budget
// must inject nothing and the trial must come back clean.
func MediaArms() []Drill {
	row := func(mode pmem.Mode, fault string, media Media) Drill {
		return Drill{Name: modeName(mode) + "-" + fault, Script: DefaultScript(),
			Opts:       options(1, mode, core.Config{Checksums: true}),
			PowerCycle: true, Media: media, Repair: true}
	}
	var rows []Drill
	for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
		rows = append(rows, row(mode, "bitflip", Media{BitFlips: 4}),
			row(mode, "torn", Media{TornLines: 6}), row(mode, "poison", Media{PoisonLines: 2}))
	}
	return rows
}

// ReadRepairArms is MediaArms with a replica attached, on two shards
// (which keeps the per-shard report stamping honest): the first
// quarter of the script is seeded by full sync, the rest ships record
// by record, and after local repair the quarantine losses are fetched
// back from the peer — under eADR every one of them.
func ReadRepairArms() []Drill {
	rows := MediaArms()
	for i := range rows {
		rows[i].Opts = options(2, rows[i].Opts.Platform.Mode, core.Config{Checksums: true})
		rows[i].Peer = &Peer{SyncAt: len(rows[i].Script) / 4}
	}
	return rows
}

func modeName(mode pmem.Mode) string { return strings.ToLower(mode.String()) }
