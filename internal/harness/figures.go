package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// Figure is one entry of the figure table: a figure or table of the
// paper's evaluation (§VI), or an extension, declared as the panels it
// prints. A Sheet measures the panels' cells on demand.
type Figure struct {
	// Name is the figure's -fig key in spash-bench.
	Name string
	// Desc is the one-line description printed above the figure.
	Desc   string
	panels func(sh *Sheet) []panel
}

// figureTable is the figure table: spash-bench, BenchmarkFigure, the
// golden and the claims (claims_test.go) iterate it. Adding a figure
// is adding a row.
var figureTable = []Figure{
	{"1", "PM write bandwidth under flush strategies (Fig 1)", fig1},
	{"7", "single-operation throughput vs workers (Fig 7)", fig7},
	{"8", "PM accesses per operation (Fig 8)", fig8},
	{"9", "load factor vs inserted entries (Fig 9)", fig9},
	{"10", "YCSB, inlined key-values (Fig 10)", fig10},
	{"11", "YCSB, variable-sized values (Fig 11)", fig11},
	{"12a", "adaptive in-place update ablation (Fig 12a)", fig12a},
	{"12b", "compacted-flush insertion ablation (Fig 12b)", fig12b},
	{"12c", "concurrency-protocol ablation (Fig 12c)", fig12c},
	{"12d", "pipeline depth (Fig 12d)", fig12d},
	{"table1", "adaptive flush policy validation (Table I)", table1},
	{"ext-doubling", "staged vs monolithic doubling tail latency (extension)", extDoubling},
	{"ext-hotspot", "hotspot detector sizing sweep (extension)", extHotspot},
	{"ext-eadr", "eADR+HTM vs legacy-ADR discipline (extension)", extEADR},
	{"ext-integrity", "checksum-seal overhead, off vs on (extension)", extIntegrity},
	{"shards", "shard scaling: throughput vs shards × threads (extension)", figShards},
}

// Figures returns the figure table.
func Figures() []Figure { return figureTable }

// A Sheet measures figure cells at one scale. A cell is measured the
// first time a panel or a claim reads it and is then kept, so rendering
// a figure and checking its claims measure it once; cells of two
// figures that run the same phases are shared. Every measured phase is
// filed with the active Recorder, so a run that needs one artifact per
// figure uses a fresh Sheet per figure. A Sheet is not safe for
// concurrent use.
type Sheet struct {
	scale  Scale
	shards []int
	memo   map[string]any
	err    error
}

// NewSheet returns an empty sheet at scale s; shards is the shard-count
// axis of the shards figure (nil: 1, 2, 4, 8).
func NewSheet(s Scale, shards []int) *Sheet {
	if len(shards) == 0 {
		shards = []int{1, 2, 4, 8}
	}
	return &Sheet{scale: s, shards: shards, memo: map[string]any{}}
}

// measured returns the measurement filed under key, taking it the first
// time it is asked for. Once a measurement fails the sheet takes no
// more: it files zero values and Render returns the error.
func measured[T any](sh *Sheet, take func() (T, error), key ...any) T {
	k := fmt.Sprintln(key...)
	if v, ok := sh.memo[k]; ok {
		return v.(T)
	}
	var v T
	if sh.err == nil {
		v, sh.err = take()
	}
	sh.memo[k] = v
	return v
}

// panel is one printed table of a figure: head labels the row-label
// column and then every column, rows labels every row, and at measures
// the cell in row r and column c (c counts from the first column after
// the row labels).
type panel struct {
	title string
	head  []string
	rows  []string
	at    func(r, c int) value
}

// value is one cell: the number a claim reads and the text printed.
type value struct {
	v    float64
	text string
}

func num(v float64) value { return value{v, fmt.Sprintf("%.2f", v)} }

func mops(r Result) value { return num(r.Throughput()) }

// Render measures every panel of f and writes it as an aligned table.
func (sh *Sheet) Render(w io.Writer, f Figure) error { return sh.write(w, f.panels(sh)) }

func (sh *Sheet) write(w io.Writer, panels []panel) error {
	for _, p := range panels {
		dashes := make([]string, len(p.head))
		for i, h := range p.head {
			dashes[i] = strings.Repeat("-", len(h))
		}
		lines := []string{strings.Join(p.head, "\t"), strings.Join(dashes, "\t")}
		for r, label := range p.rows {
			cells := []string{label}
			for c := range p.head[1:] {
				cells = append(cells, p.at(r, c).text)
			}
			lines = append(lines, strings.Join(cells, "\t"))
		}
		if sh.err != nil {
			return sh.err
		}
		fmt.Fprintf(w, "\n### %s\n\n", p.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, l := range lines {
			fmt.Fprintln(tw, l)
		}
		tw.Flush()
	}
	return nil
}

// labels formats every element of xs with format.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// names lists the entries' names.
func names(es []Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

// distinctRoster is MicroRoster without Spash-noPipe, whose access
// counts and load factors are Spash's.
func distinctRoster() []Entry {
	return slices.DeleteFunc(slices.Clone(MicroRoster()), func(e Entry) bool { return e.Name == "Spash-noPipe" })
}
