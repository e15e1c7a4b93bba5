package harness

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// A claim is one row of the claims table: a sentence of the paper (for
// an extension, of EXPERIMENTS.md) as a predicate over the cells of one
// figure of the figure table, read at tinyScale. deviates, when set,
// says why the reproduction does not show the claim; the row must then
// fail, so a deviation that goes away is noticed.
type claim struct {
	id, fig, paper string
	holds          func(c *cells) bool
	deviates       string
}

// The baselines of the micro (Fig 7-9) and macro (Fig 10-11) rosters.
var (
	microRivals = names(MicroRoster()[2:])
	macroRivals = names(MacroRoster()[2:])
)

var claims = []claim{
	{"fig1-obs2", "1", "§II-B Observation 2: for uniform writes larger than a cacheline, write-nf loses to write-f (eviction-order write amplification)",
		func(c *cells) bool { return c.at(0, "1024B", "write-nf") < c.at(0, "1024B", "write-f") }, ""},
	{"fig1-obs3", "1", "§II-B Observation 3: under zipfian skew write-nf beats write-f: the persistent cache absorbs hot writes",
		func(c *cells) bool { return c.at(1, "256B", "write-nf") > c.at(1, "256B", "write-f") }, ""},
	{"fig1-obs4", "1", "§II-B Observation 4: below one cacheline write-nf is never worse than write-f",
		func(c *cells) bool { return c.at(0, "16B", "write-nf") >= c.at(0, "16B", "write-f") }, ""},
	{"fig1-hybrid", "1", "§II-B: above one cacheline (> 64 B), flushing all but the top-1% hot writes beats 100% write-nf",
		func(c *cells) bool { return c.at(1, "256B", "nf-hot1%") > c.at(1, "256B", "write-nf") },
		"in the model pure write-nf's cold amplification outweighs the hybrid's flushes only for multi-XPLine accesses: the crossover is at >= 1 KB"},
	{"fig7-scaling", "7", "§VI-B (Fig 7): Spash's lock-free search throughput grows with the worker count",
		func(c *cells) bool { return c.at(0, "Spash", "4thr") > 2*c.at(0, "Spash", "1thr") }, ""},
	{"fig7-pipeline", "7", "§VI-B: pipelined execution about doubles Spash's search throughput",
		func(c *cells) bool { return c.at(0, "Spash", "1thr") > 1.5*c.at(0, "Spash-noPipe", "1thr") }, ""},
	{"fig7-search-lead", "7", "§VI-B: Spash searches 3.1-7.1× faster than every other index",
		func(c *cells) bool {
			return c.at(0, "Spash", "1thr") >= 3.1*slices.Max(c.column(0, "1thr", microRivals...))
		},
		"at 10 000 keys Plush's DRAM buffers never fill, so its searches never reach PM (Fig 8: 0 reads); the PM baselines are 3.2-10× behind"},
	{"fig8-search-reads", "8", "§VI-B (Fig 8): a Spash search reads about one XPLine and 1.1 cachelines",
		func(c *cells) bool {
			return c.at(0, "Spash", "search XP-rd") <= 1.1 && c.at(0, "Spash", "search CL-rd") <= 1.2
		}, ""},
	{"fig8-others-read-more", "8", "§VI-B: the other indexes read 3.7-10.9× more per search",
		func(c *cells) bool {
			return slices.Min(c.column(0, "search CL-rd", microRivals...)) >= 3.7*c.at(0, "Spash", "search CL-rd")
		},
		"at 10 000 keys the baselines' lock words and metadata stay cached too (CCEH 1.2×, Dash and Level 1.7×) and Plush reads nothing from PM; only CLevel (4.9×) is in the band"},
	{"fig8-dash-metadata", "8", "§VI-B: Dash's bucket-granular metadata costs more cacheline reads per search than Spash's",
		func(c *cells) bool { return c.at(0, "Dash", "search CL-rd") > c.at(0, "Spash", "search CL-rd") }, ""},
	{"fig8-one-write", "8", "§VI-B: a Spash update and a Spash delete each write about one XPLine",
		func(c *cells) bool {
			return c.at(1, "Spash", "update XP-wr") <= 1.1 && c.at(1, "Spash", "delete XP-wr") <= 1.1
		}, ""},
	{"fig8-insert-decoupling", "8", "§VI-B: a Spash insert writes ~2.0 cachelines but only ~1.1 XPLines (split segments flush sequentially)",
		func(c *cells) bool {
			xp := c.at(1, "Spash", "insert XP-wr")
			return xp <= 1.2 && xp <= 0.75*c.at(1, "Spash", "insert CL-wr")
		}, ""},
	{"fig9-spash-stable", "9", "§VI-B (Fig 9): Spash's load factor is high and stable (fine-grained on-demand splits)",
		func(c *cells) bool { lf := c.column(0, "Spash"); return slices.Min(lf) >= 0.6 && spread(lf) <= 0.05 }, ""},
	{"fig9-cceh-low", "9", "§VI-B: CCEH's load factor stays low: bounded probing splits segments early",
		func(c *cells) bool { return slices.Max(c.column(0, "CCEH")) < slices.Min(c.column(0, "Spash")) }, ""},
	{"fig9-dash-level-swing", "9", "§VI-B: Dash and Level reach higher maxima than Spash but fluctuate strongly",
		func(c *cells) bool {
			dash, level := c.column(0, "Dash"), c.column(0, "Level")
			return min(slices.Max(dash), slices.Max(level)) > slices.Max(c.column(0, "Spash")) && min(spread(dash), spread(level)) >= 0.2
		}, ""},
	{"fig9-clevel", "9", "§VI-B: CLevel's load factor sits with Level's, the design it extends",
		func(c *cells) bool { return slices.Max(c.column(0, "CLevel")) >= 0.8*slices.Max(c.column(0, "Level")) },
		"this CLevel inserts only into its newest level (migration safety), so it peaks at ~0.33 against Level's ~0.81"},
	{"fig10-over-locks", "10", "§VI-C (Fig 10): under skew Spash outruns the lock-based Level (read+write locks) and CCEH (read-write locks)",
		func(c *cells) bool { return c.runs(0, "Spash") > c.runs(0, "Level", "CCEH") }, ""},
	{"fig10-run-phases", "10", "§VI-C: Spash is 2.0-19.6× faster than every baseline in the run phases",
		func(c *cells) bool { return c.runs(0, "Spash") >= 2*c.runs(0, macroRivals...) },
		"at 10 000 keys Plush's DRAM buffers never flush (median run mix: Plush 60 vs Spash 40 Mops), and CCEH trails by only 1.4×"},
	{"fig10-load", "10", "§VI-C: Spash loads 1.1-31.2× faster than every baseline",
		func(c *cells) bool {
			return c.at(0, "Spash", "Load") >= 1.1*slices.Max(c.column(0, "Load", macroRivals...))
		},
		"Halo loads into a DRAM map and a sequential log, cheap at every table size this reproduction runs (EXPERIMENTS.md Fig 10); at 10 000 keys Plush's DRAM buffers take the whole load"},
	{"fig11-pm-baselines", "11", "§VI-C (Fig 11): with 16 B values Spash outruns the PM-resident baselines",
		func(c *cells) bool { return c.runs(0, "Spash") > c.runs(0, "CCEH", "Dash", "Level", "CLevel") }, ""},
	{"fig11-best-everywhere", "11", "§VI-C: Spash is best in every run mixture (checked at 16 B values; write-intensive up to 13.4×)",
		func(c *cells) bool {
			ok := true
			for _, mix := range ycsbPhases[1:] {
				ok = c.at(0, "Spash", mix) > slices.Max(c.column(0, mix, macroRivals...)) && ok
			}
			return ok
		},
		"at 10 000 keys Plush's DRAM buffers never flush, so it leads the 16 B read-intensive mix (24 vs 16 Mops); CCEH and Dash also overtake Spash on write-intensive 256 B and 1 KB values"},
	{"fig12a-adaptive-over-flush", "12a", "§VI-D (Fig 12a): adaptive updates are 1.2-2.2× faster than in-place updates with flush",
		func(c *cells) bool {
			return c.at(0, "adaptive", "256B") >= 1.2*c.at(0, "in-place w/ flush", "256B") &&
				c.at(0, "adaptive", "1024B") >= 1.2*c.at(0, "in-place w/ flush", "1024B")
		},
		"at 4 workers on 10 000 keys the update runs are CPU-bound, so the saved flushes buy only 1.05-1.15×"},
	{"fig12a-1024B", "12a", "§VI-D: the adaptive policy flushes cold large values, so always-flush does not beat it at 1 KB (beyond the cell's ±20% spread)",
		func(c *cells) bool { return 1.2*c.at(0, "adaptive", "1024B") >= c.at(0, "in-place w/ flush", "1024B") }, ""},
	{"fig12b-xpline-writes", "12b", "§VI-D (Fig 12b): compacted-flush insertion halves the XPLines written per insert (active flushing up to 2.2×)",
		func(c *cells) bool {
			return 1.5*c.at(0, "compacted-flush", "XPLine-writes/op") <
				slices.Min(c.column(0, "XPLine-writes/op", "no-compaction", "compacted w/o flush"))
		}, ""},
	{"fig12b-throughput", "12b", "§VI-D: compacted-flush insertion is up to 2.5× faster (checked as 2×: this cell's run-to-run spread is ±25%)",
		func(c *cells) bool {
			return c.at(0, "compacted-flush", "Mops/s") >= 2*c.at(0, "no-compaction", "Mops/s")
		},
		"10 000 inserts from 4 workers are CPU-bound, not PM-write-bandwidth-bound, so halving the XPLine writes does not show as throughput"},
	{"fig12c-htm-over-locks", "12c", "§VI-D (Fig 12c): HTM beats the write-lock variant (up to 3.5×, write-intensive) and write+read locks (up to 4.4×, read-intensive)",
		func(c *cells) bool {
			return c.at(0, "Spash (HTM)", "write-intensive(10/90)") > c.at(0, "Spash (w/ write lock)", "write-intensive(10/90)") &&
				c.at(0, "Spash (HTM)", "read-intensive(90/10)") > c.at(0, "Spash (w/ write & read lock)", "read-intensive(90/10)")
		},
		"at 4 workers every variant is CPU-bound and no lock stripe's serial time binds, so the write-lock variant leads (48 vs 37 Mops write-intensive)"},
	{"fig12d-pd4-saturates", "12d", "§VI-D (Fig 12d): pipeline depth 4 captures most of the gain; deeper adds little",
		func(c *cells) bool {
			pd4 := c.at(0, "PD=4", "1thr")
			return pd4 >= 1.3*c.at(0, "PD=1", "1thr") && c.at(0, "PD=8", "1thr") <= 1.05*pd4
		}, ""},
	{"table1-policy", "table1", "§III-B Table I: hot → no flush; cold ≤ 64 B → no flush; cold > 64 B → flush (fewer XPLine writes)",
		func(c *cells) bool { // rows: hot / 8B, hot / 256B, cold / 8B, cold / 256B
			f, nf := c.column(0, "w/ flush"), c.column(0, "w/o flush")
			return nf[0] <= f[0] && nf[1] <= f[1] && nf[2] <= f[2] && f[3] < nf[3]
		}, ""},
	{"ext-doubling-tail", "ext-doubling", "§IV-B: collaborative staged doubling reduces the tail latency against stop-the-world doubling",
		func(c *cells) bool { p := c.column(0, "p99.9"); return p[0] < p[1] }, ""}, // rows: staged, monolithic
	{"ext-doubling-throughput", "ext-doubling", "§IV-B: staged doubling significantly improves the overall throughput (beyond this cell's 0.7-2.2× run-to-run spread)",
		func(c *cells) bool { m := c.column(0, "Mops/s"); return m[0] >= 3*m[1] },
		"4-worker insert runs across doublings vary with real-time scheduling (ROADMAP item 8); at medium scale one staged helper leads by ~14%"},
	{"ext-hotspot-small", "ext-hotspot", "§VI-D: a small hotspot detector is enough: 512 entries (p=8) perform within 10% of the paper's 8K",
		func(c *cells) bool {
			return slices.Max(c.column(0, "p=8 (512 entries)")) >= 0.9*c.at(0, "q=2", "p=12 (8192 entries)")
		}, ""},
	{"ext-eadr-wins", "ext-eadr", "EXPERIMENTS.md: the persistent cache + HTM outrun the legacy-ADR discipline (locks, flush + fence per write)",
		func(c *cells) bool {
			return c.runs(0, "Spash (eADR + HTM)") > c.runs(0, "Spash (legacy ADR: locks + flush/fence)")
		}, ""},
	{"ext-integrity-cost", "ext-integrity", "EXPERIMENTS.md: checksum seals cost every phase: inserts verify, update and reseal; lookups verify",
		func(c *cells) bool { return slices.Min(c.row(0, "seal overhead")) > 10 }, ""},
	{"shards-media-writes", "shards", "EXPERIMENTS.md: media writes fall with shard count: each shard keeps a full-size cache",
		func(c *cells) bool { return slices.Max(c.column(4, "8sh")) < slices.Min(c.column(4, "1sh")) }, ""},
	{"shards-not-free", "shards", "EXPERIMENTS.md: sharding is not free at low thread counts: there the monolith wins the balanced mix",
		func(c *cells) bool { mix := c.row(1, "1"); return mix[0] == slices.Max(mix) }, ""},
}

// cells reads one figure's cells for a claim by panel index, row label
// and column header, keeping what it read for the failure message.
type cells struct {
	t      *testing.T
	panels []panel
	read   []string
}

func (c *cells) at(p int, row, col string) float64 {
	pn := c.panels[p]
	r, k := slices.Index(pn.rows, row), slices.Index(pn.head[1:], col)
	if r < 0 || k < 0 {
		c.t.Fatalf("panel %d has no cell %s|%s", p, row, col)
	}
	v := pn.at(r, k).v
	c.read = append(c.read, fmt.Sprintf("%s|%s=%.3g", row, col, v))
	return v
}

// column is column col of panel p, down rows (every row when none).
func (c *cells) column(p int, col string, rows ...string) []float64 {
	if len(rows) == 0 {
		rows = c.panels[p].rows
	}
	var out []float64
	for _, r := range rows {
		out = append(out, c.at(p, r, col))
	}
	return out
}

// row is row row of panel p, across every column.
func (c *cells) row(p int, row string) []float64 {
	var out []float64
	for _, col := range c.panels[p].head[1:] {
		out = append(out, c.at(p, row, col))
	}
	return out
}

// runs is the largest of the rows' medians over the three YCSB run
// mixes of panel p: a 4-worker HTM cell now and then drops 2-3× with
// real-time scheduling (ROADMAP item 8), and the median of three reads
// through one such drop.
func (c *cells) runs(p int, rows ...string) float64 {
	best := 0.0
	for _, r := range rows {
		mixes := c.row(p, r)[1:]
		slices.Sort(mixes)
		best = max(best, mixes[1])
	}
	return best
}

func spread(vs []float64) float64 { return slices.Max(vs) - slices.Min(vs) }

// TestClaims evaluates every row of the claims table on the tiny sheet
// it starts (TestFiguresGolden renders the same sheet), and checks that
// every figure has a row and every row id appears in EXPERIMENTS.md.
func TestClaims(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tiny = NewSheet(tinyScale, nil)
	covered := map[string]bool{}
	for _, cl := range claims {
		covered[cl.fig] = true
		t.Run(cl.id, func(t *testing.T) {
			if !strings.Contains(string(doc), "`"+cl.id+"`") {
				t.Error("the row id is not in EXPERIMENTS.md")
			}
			c := &cells{t: t, panels: figure(cl.fig).panels(tiny)}
			held := cl.holds(c)
			switch {
			case tiny.err != nil:
				t.Fatal(tiny.err)
			case held && cl.deviates != "":
				t.Errorf("holds now (%s): remove its deviates reason %q", strings.Join(c.read, " "), cl.deviates)
			case !held && cl.deviates == "":
				t.Errorf("%s\ndoes not hold: %s", cl.paper, strings.Join(c.read, " "))
			}
		})
	}
	for _, f := range Figures() {
		if !covered[f.Name] {
			t.Errorf("figure %s has no claim row", f.Name)
		}
	}
}
