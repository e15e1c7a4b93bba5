package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// consumers names, for every counter, gauge and histogram, the
// repo-relative file that reads it: the code (a Stats view, a health
// rule, a dashboard, the benchmark, a drill) or the test that makes the
// metric worth its increment sites. A metric with no entry has no
// reader and is deleted, not exported.
var consumers = map[string]string{
	// Counters.
	"splits":              "internal/core/index.go",
	"split_fallbacks":     "internal/core/index.go",
	"merges":              "internal/core/index.go",
	"doubles":             "internal/core/index.go",
	"collab_stages":       "internal/core/index.go",
	"lock_fallbacks":      "internal/core/index.go",
	"update_inplace":      "bench/run.go",
	"update_append":       "bench/run.go",
	"flush_skip_hot":      "internal/core/index.go",
	"flush_skip_small":    "internal/core/stats_test.go",
	"update_flushes":      "internal/core/stats_test.go",
	"chunk_flushes":       "internal/core/stats_test.go",
	"record_flushes":      "internal/core/stats_test.go",
	"pipeline_batches":    "internal/core/core_test.go",
	"quarantines":         "internal/obs/health.go",
	"repl_ship_segments":  "internal/repl/hardening_test.go",
	"repl_apply_segments": "internal/repl/hardening_test.go",
	"repl_retries":        "internal/crashtest/chaos.go",
	"repl_apply_dupes":    "internal/crashtest/chaos.go",
	"repl_sheds":          "internal/repl/hardening_test.go",
	"repl_breaker_trips":  "internal/crashtest/chaos.go",
	"repl_spills":         "internal/crashtest/chaos.go",
	"repl_spill_sheds":    "internal/repl/hardening_test.go",
	"repl_resyncs":        "internal/crashtest/chaos.go",
	"repl_replays":        "internal/crashtest/chaos.go",
	"repl_reseeds":        "internal/crashtest/chaos.go",
	"serve_accepts":       "cmd/spash-top/main.go",
	"serve_cmds":          "cmd/spash-top/main.go",
	"serve_cmd_get":       "cmd/spash-top/main.go",
	"serve_cmd_set":       "cmd/spash-top/main.go",
	"serve_cmd_del":       "cmd/spash-top/main.go",
	"serve_cmd_other":     "cmd/spash-top/main.go",
	"serve_batches":       "bench/run.go",
	"serve_errors":        "cmd/spash-top/main.go",
	// Gauges.
	"repl_lag_records":   "cmd/spash-top/main.go",
	"repl_lag_bytes":     "internal/obs/health.go",
	"fsck_unrecoverable": "internal/obs/health.go",
	"repl_breaker_state": "internal/obs/health.go",
	"repl_spill_depth":   "internal/obs/health.go",
	"repl_spill_limit":   "internal/obs/health.go",
	"serve_conns":        "cmd/spash-top/main.go",
	"serve_inflight":     "cmd/spash-top/main.go",
	// Histograms.
	"probe_len":   "bench/run.go",
	"serve_batch": "cmd/spash-top/main.go",
}

// notReaders are files whose mentions of a metric never make them its
// consumer: the definitions and obs's generic exporters, which render
// every metric whether anyone reads it or not.
var notReaders = map[string]bool{
	"internal/obs/obs.go":      true,
	"internal/obs/export.go":   true,
	"internal/obs/snapshot.go": true,
}

// metricIdents parses obs.go and returns every export name of
// CounterNames, GaugeNames and HistNames mapped to its Go identifier.
func metricIdents(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "obs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	idents := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			switch vs.Names[0].Name {
			case "CounterNames", "GaugeNames", "HistNames":
			default:
				continue
			}
			for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
				kv := elt.(*ast.KeyValueExpr)
				name, err := strconv.Unquote(kv.Value.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := idents[name]; dup {
					t.Errorf("metric name %q is defined twice", name)
				}
				idents[name] = kv.Key.(*ast.Ident).Name
			}
		}
	}
	return idents
}

// TestEveryMetricHasAConsumer checks that the consumer map is total and
// true: every metric has an entry, every entry names a metric, and the
// named file reads the metric (by export name or Go identifier) at
// least once other than in an increment call.
func TestEveryMetricHasAConsumer(t *testing.T) {
	idents := metricIdents(t)
	if want := int(numCounters) + int(numGauges) + int(numHists); len(idents) != want {
		t.Fatalf("parsed %d metric names from obs.go, want %d", len(idents), want)
	}
	for name := range consumers {
		if _, ok := idents[name]; !ok {
			t.Errorf("consumer entry %q names no metric", name)
		}
	}
	for name, ident := range idents {
		file, ok := consumers[name]
		if !ok {
			t.Errorf("metric %s (%s) has no consumer: delete it or name its reader", name, ident)
			continue
		}
		if notReaders[file] {
			t.Errorf("metric %s: %s is not a consumer", name, file)
			continue
		}
		src, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(file)))
		if err != nil {
			t.Errorf("metric %s: %v", name, err)
			continue
		}
		q := regexp.QuoteMeta
		mentions := regexp.MustCompile(`\b` + q(ident) + `\b|["'` + "`]" + q(name) + "[\"'`]")
		increments := regexp.MustCompile(`\.(Inc|Add|SetGauge|AddGauge|Observe\w*)\(\s*(obs\.)?` + q(ident) + `\b`)
		m := len(mentions.FindAllIndex(src, -1))
		if m == 0 {
			t.Errorf("metric %s: %s never mentions %q or %s", name, file, name, ident)
		} else if m == len(increments.FindAllIndex(src, -1)) {
			t.Errorf("metric %s: %s only increments it", name, file)
		}
	}
	t.Logf("checked %d counters, %d gauges and %d histograms", numCounters, numGauges, numHists)
}
