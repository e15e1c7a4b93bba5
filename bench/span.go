package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the layer boundary a span was recorded around.
type spanName uint8

const (
	spOp spanName = iota // in-process root: generate, call, check
	spGet
	spUpdate
	spInsert
	spDelete
	spWindow // wire root: one window of commands, first Cmd to last reply
	spEncode
	spFlush
	spWait
	spParse
	spRespParse // replay
	spExecBatch // replay
	spRespRender
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "spash.get", "spash.update", "spash.insert", "spash.delete",
	"window", "client.encode", "client.flush", "client.wait", "client.parse",
	"resp.parse", "spash.execbatch", "resp.render",
}

// span is one recorded interval. Parent indexes the tracer's slice (-1
// for a root); spans of one request share Req. 32 bytes, no pointers, so
// millions of them cost the collector nothing.
type span struct {
	Name   spanName
	Parent int32
	Req    uint32
	Start  int64 // ns since the tracer's origin
	End    int64
}

// tracer keeps the spans of one goroutine in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name spanName, parent int32, req uint32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].End = t.now() }

// spanTotals are per-name sums over a set of spans.
type spanTotals struct {
	count [numSpanNames]int64
	total [numSpanNames]int64 // sum of durations
	self  [numSpanNames]int64 // durations minus what child spans cover
}

// totals computes durations and self times: a span's self time is its
// duration minus the durations of the spans that name it as parent.
func totals(spans []span) spanTotals {
	var st spanTotals
	for _, s := range spans {
		d := s.End - s.Start
		st.count[s.Name]++
		st.total[s.Name] += d
		st.self[s.Name] += d
		if s.Parent >= 0 {
			st.self[spans[s.Parent].Name] -= d
		}
	}
	return st
}

// per is total[name]/n, 0 when n is 0.
func (st *spanTotals) per(name spanName, n int64) float64 {
	return ratio(float64(st.total[name]), float64(n))
}

// perSelf is name's mean self time per span.
func (st *spanTotals) perSelf(name spanName) float64 {
	return ratio(float64(st.self[name]), float64(st.count[name]))
}

// maxSpansWritten caps the trace file; the metrics use every span.
const maxSpansWritten = 200_000

// writeSpans writes the first maxSpansWritten spans as a JSON array.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	n := min(len(spans), maxSpansWritten)
	fmt.Fprintf(w, "{\"spans_recorded\": %d, \"spans_written\": %d, \"unit\": \"ns\", \"spans\": [\n", len(spans), n)
	for i, s := range spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}%s\n",
			spanNames[s.Name], s.Start, s.End, s.Parent, s.Req, sep)
	}
	fmt.Fprintln(w, "]}")
	return w.Flush()
}
