package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// table accumulates a labelled grid and renders it aligned.
type table struct {
	title   string
	columns []string
	rows    [][]string
}

func newTable(title string, columns ...string) *table {
	return &table{title: title, columns: columns}
}

func (t *table) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) write(w io.Writer) {
	fmt.Fprintf(w, "\n### %s\n\n", t.title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.columns, "\t"))
	sep := make([]string, len(t.columns))
	for i, c := range t.columns {
		sep[i] = strings.Repeat("-", len(c))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

func mops(r Result) string { return fmt.Sprintf("%.2f", r.Throughput()) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
