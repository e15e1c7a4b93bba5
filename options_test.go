package spash_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"spash"
	"spash/internal/htm"
	"spash/internal/repl"
	"spash/internal/server"
)

// setters names, for every leaf field of the option structs, the
// repo-relative file that sets it: the program (a command, an example,
// a drill, an ablation figure) or, for a field whose only other value
// is needed to reach a path, the test that needs it. A field with no
// entry has one value in use and is a constant, not an option.
var setters = map[string]string{
	"spash.Options.Shards":  "cmd/spash-serve/main.go",
	"spash.Options.Replica": "internal/repl/repl.go",

	"pmem.Config.PoolSize":      "cmd/spash-fsck/main.go",
	"pmem.Config.Mode":          "examples/recovery/main.go",
	"pmem.Config.CacheSize":     "cmd/spash-fsck/main.go",
	"pmem.Config.CacheWays":     "internal/pmem/cache_test.go",
	"pmem.Config.XPBufferLines": "internal/pmem/coalesce_test.go",

	"core.Config.InitialDepth":         "internal/crashtest/concurrent.go",
	"core.Config.Concurrency":          "internal/harness/figablation.go",
	"core.Config.Update":               "examples/recovery/main.go",
	"core.Config.Insert":               "examples/recovery/main.go",
	"core.Config.PipelineDepth":        "examples/pipeline/main.go",
	"core.Config.HotspotPartitionBits": "internal/harness/figablation.go",
	"core.Config.HotKeysPerPartition":  "internal/harness/figablation.go",
	"core.Config.OracleHot":            "internal/harness/figablation.go",
	"core.Config.MaxTxRetries":         "internal/core/concurrency_test.go",
	"core.Config.PersistBarrier":       "internal/harness/figablation.go",
	"core.Config.MonolithicResize":     "internal/harness/figablation.go",
	"core.Config.LockStripeBits":       "internal/core/core_test.go",
	"core.Config.Checksums":            "cmd/spash-fsck/main.go",
	"core.Config.SpanSample":           "cmd/spash-top/main.go",
	"core.Config.DisableObs":           "internal/core/obs_bench_test.go",

	"htm.Config.Stripes":            "internal/htm/htm_test.go",
	"htm.Config.WriteCapacityWords": "internal/htm/htm_test.go",
	"htm.Config.ReadCapacityWords":  "internal/htm/htm_test.go",

	"server.Config.Addr":        "cmd/spash-serve/main.go",
	"server.Config.MaxBatch":    "cmd/spash-serve/main.go",
	"server.Config.IdleTimeout": "cmd/spash-serve/main.go",

	"repl.PrimaryOptions.ProbeInterval": "internal/crashtest/crashtest.go",
	"repl.RetryPolicy.MaxAttempts":      "internal/crashtest/chaos.go",
	"repl.RetryPolicy.Deadline":         "internal/crashtest/chaos.go",
	"repl.RetryPolicy.JitterSeed":       "internal/crashtest/chaos.go",
	"repl.RetryPolicy.Sleep":            "internal/crashtest/chaos.go",
}

// notSetters are the files that declare the option structs: the
// defaults they fill in never make them a setter.
var notSetters = map[string]bool{
	"spash.go":                  true,
	"internal/core/config.go":   true,
	"internal/pmem/config.go":   true,
	"internal/htm/htm.go":       true,
	"internal/server/server.go": true,
	"internal/repl/retry.go":    true,
	"internal/repl/breaker.go":  true,
}

// optionLeaves lists the leaf fields of t as "pkg.Type.Field",
// descending into fields whose type is itself a struct of this module
// (spash.Options.Platform is a pmem.Config).
func optionLeaves(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "spash") {
			out = append(out, optionLeaves(f.Type)...)
			continue
		}
		out = append(out, t.String()+"."+f.Name)
	}
	return out
}

// TestEveryOptionHasASetter checks that the setter map is total and
// true: every leaf field of the option structs has an entry, every
// entry names a field, and the named file sets the field at least once
// (a composite-literal key or an assignment to it).
func TestEveryOptionHasASetter(t *testing.T) {
	var leaves []string
	for _, v := range []any{spash.Options{}, htm.Config{},
		server.Config{}, repl.PrimaryOptions{}} {
		leaves = append(leaves, optionLeaves(reflect.TypeOf(v))...)
	}
	known := map[string]bool{}
	for _, leaf := range leaves {
		known[leaf] = true
	}
	for leaf := range setters {
		if !known[leaf] {
			t.Errorf("setter entry %q names no option field", leaf)
		}
	}
	for _, leaf := range leaves {
		file, ok := setters[leaf]
		if !ok {
			t.Errorf("option %s has no setter: make it a constant or name the file that sets it", leaf)
			continue
		}
		if notSetters[file] {
			t.Errorf("option %s: %s declares the option and is not a setter", leaf, file)
			continue
		}
		src, err := os.ReadFile(filepath.FromSlash(file))
		if err != nil {
			t.Errorf("option %s: %v", leaf, err)
			continue
		}
		name := regexp.QuoteMeta(leaf[strings.LastIndex(leaf, ".")+1:])
		sets := regexp.MustCompile(`\b` + name + `\s*:[^=]|\.` + name + `\s*=[^=]`)
		if !sets.Match(src) {
			t.Errorf("option %s: %s never sets %s", leaf, file, name)
		}
	}
	t.Logf("checked %d option fields", len(leaves))
}
