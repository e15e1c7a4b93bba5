package main

import "fmt"

// setups is how many times an untraced run sets up from scratch. setup_s
// is their median, and the measured reps are spread over them: on this
// box a process's speed depends on where its pages landed (±4 % between
// set-ups of one run) and slow episodes last tens of seconds, so a run
// that measured on one set-up would carry that luck into every rep.
const setups = 3

// repsPerSetup is the number of measured repetitions of a workload's op
// count after each set-up; half a rep more, discarded, runs first as
// warm-up. Wall-clock metrics are the best of all setups*repsPerSetup.
const (
	repsPerSetup = 3
	reps         = setups * repsPerSetup
)

// recoveries is how many crash→RecoverAll cycles of the traced run feed
// core.recover_s (their fastest); an untraced run recovers once, for the
// durability oracle.
const recoveries = 5

// latencyEvery is the in-process latency sampling period: timing every
// 16th Session call keeps the timer's own cost under 1 % of the rep.
const latencyEvery = 16

// spec describes one workload. Work is a fixed op count per rep, never a
// fixed duration, so counted metrics compare exactly between runs:
// opsPerSec is a sizing constant measured once on the reference box
// (2 shared cores), and --seconds scales the op count through it.
type spec struct {
	name string
	why  string // one line; BENCHMARK.json repeats it

	wire    bool
	shards  int
	workers int // load-side goroutines (in-process) — wire uses 1 connection
	window  int // wire: commands per flush

	inline  bool // 8 B keys / 8 B values stored in the slot; else 16 B / 64 B out of line
	records int  // loaded before measuring
	keys    int  // requests draw from ids [0, keys); keys <= records
	// coldEvery sends one request in coldEvery to the whole loaded range
	// instead of [0, keys): a cold tail behind a cache-resident hot set,
	// which keeps media traffic per op a small steady number, not 0.
	coldEvery int
	mix       mix

	opsPerSec float64
	tinyOps   int // ops per rep at -scale tiny
}

// mix is the request mix in percent. Insert means a fresh key in-process
// and SET of an existing key on the wire.
type mix struct {
	get, update, insert, del int
	absentGets               int // percent of GETs aimed at keys never loaded
}

const tinyRecords = 10_000

var workloads = []spec{
	{
		name:   "get_uniform",
		why:    "in-process uniform point reads on inline records, 2x the simulated cache: core probe, HTM read txn and cache simulator do all the work; alloc, shard, resp, server do none",
		shards: 1, workers: 1, inline: true,
		records: 500_000, keys: 500_000,
		mix:       mix{get: 100, absentGets: 10},
		opsPerSec: 1_050_000, tinyOps: 20_000,
	},
	{
		name:   "mix_zipf",
		why:    "in-process zipfian 50/30/10/10 get/update/insert/delete from two writers on one shard: hot in-place updates, compacted-flush inserts, splits, alloc churn and HTM conflicts",
		shards: 1, workers: 2,
		records: 250_000, keys: 250_000,
		mix:       mix{get: 50, update: 30, insert: 10, del: 10},
		opsPerSec: 610_000, tinyOps: 16_000,
	},
	{
		name: "wire_pipe64",
		why:  "one RESP connection pipelining 64 commands per flush to a 2-shard server: parse, batch build, ExecBatch, shard split and render dominate, sockets are amortised",
		wire: true, shards: 2, workers: 1, window: 64,
		records: 250_000, keys: 250_000,
		mix:       mix{get: 90, insert: 10},
		opsPerSec: 235_000, tinyOps: 9_600,
	},
	{
		name: "wire_rtt",
		why:  "one RESP connection, one command per round trip, 63 of 64 on a cache-resident key subset: wake-ups, syscalls and per-request allocation dominate, the engine is cheap",
		wire: true, shards: 2, workers: 1, window: 1,
		records: 250_000, keys: 50_000, coldEvery: 64,
		mix:       mix{get: 50, insert: 50},
		opsPerSec: 96_000, tinyOps: 2_000,
	},
}

func findWorkload(name string) (spec, int, error) {
	for i, sp := range workloads {
		if sp.name == name {
			return sp, i, nil
		}
	}
	return spec{}, 0, fmt.Errorf("unknown workload %q", name)
}

// sized returns the spec with record and op counts resolved for a run:
// opsPerRep is a whole number of windows per worker.
func (sp spec) sized(scale string, seconds int) (spec, int) {
	ops := int(sp.opsPerSec * float64(seconds) / reps)
	if scale == "tiny" {
		ops = sp.tinyOps
		sp.keys = sp.keys * tinyRecords / sp.records
		sp.records = tinyRecords
	}
	unit := sp.workers * max(sp.window, latencyEvery)
	ops = max(ops/unit, 1) * unit
	return sp, ops
}

func (sp spec) keyLen() int {
	if sp.inline {
		return 8
	}
	return 16
}

func (sp spec) valLen() int {
	if sp.inline {
		return 8
	}
	return 64
}
