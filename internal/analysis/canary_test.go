package analysis_test

// Canary tests for the v2 analyzers: each one deletes (in a parse-time
// overlay, never in the tree) the exact line of product code whose
// absence the analyzer exists to catch, and asserts the finding
// appears — proof the suite guards the invariant, not just the current
// source text.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spash/internal/analysis"
	"spash/internal/analysis/framework"
)

// mutateSource reads path, asserts it still contains old (so needle
// drift fails loudly), and returns the content with old replaced by new.
func mutateSource(t *testing.T, path, old, new string) []byte {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), old) {
		t.Fatalf("%s no longer contains the expected needle; update this test", path)
	}
	return []byte(strings.Replace(string(src), old, new, 1))
}

// runSuite loads the packages matching pattern (with overlay applied)
// and returns the suite's unsuppressed diagnostics.
func runSuite(t *testing.T, root, pattern string, overlay map[string][]byte) []framework.Diagnostic {
	t.Helper()
	loader := &framework.Loader{Dir: root, Overlay: overlay}
	pkgs, err := loader.Load(pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	diags, _, err := framework.Run(pkgs, analysis.Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	return diags
}

// expectOnly asserts diags contains at least one finding from analyzer
// whose message matches substr, and nothing else.
func expectOnly(t *testing.T, diags []framework.Diagnostic, analyzer, substr string) {
	t.Helper()
	var hit bool
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			hit = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !hit {
		t.Errorf("no %s diagnostic matching %q", analyzer, substr)
	}
}

// TestDeletedProberShutdownEdgeIsCaught: reverting proberLoop to a
// sleep-loop with no done-channel select (and no WaitGroup join) makes
// golifetime flag the spawn again.
func TestDeletedProberShutdownEdgeIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/repl twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "repl", "breaker.go")
	const edge = `	defer p.proberWG.Done()
	ticker := time.NewTicker(p.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.done:
			p.mu.Lock()
			p.proberOn = false
			p.mu.Unlock()
			return
		case <-ticker.C:
		}
`
	const polling = `	for {
		time.Sleep(p.opts.ProbeInterval)
`
	mutated := mutateSource(t, path, edge, polling)
	if diags := runSuite(t, root, "./internal/repl", nil); len(diags) != 0 {
		t.Fatalf("pristine internal/repl should be clean, got %v", diags)
	}
	diags := runSuite(t, root, "./internal/repl", map[string][]byte{path: mutated})
	expectOnly(t, diags, "golifetime", "proberLoop")
}

// TestDeletedShardBoundsCheckIsCaught: removing applyLocked's shard
// validation leaves Indexes()[f.Shard] unguarded — epochgate E3.
func TestDeletedShardBoundsCheckIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/repl twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "repl", "repl.go")
	const guard = `	if f.Shard < 0 || f.Shard >= r.db.Shards() {
		// Apply refuses out-of-range shards on entry; this guards the
		// indexing below against frames resurfacing from the pending
		// log of an older process image.
		return &spash.ReplicationError{Op: "apply", Shard: f.Shard,
			Epoch: r.db.Epoch(),
			Err:   fmt.Errorf("no such shard (have %d)", r.db.Shards())}
	}
	ix := r.db.Indexes()[f.Shard]
`
	mutated := mutateSource(t, path, guard, "\tix := r.db.Indexes()[f.Shard]\n")
	diags := runSuite(t, root, "./internal/repl", map[string][]byte{path: mutated})
	expectOnly(t, diags, "epochgate", "applyLocked indexes by a frame's Shard field without bounds-checking")
}

// TestDeletedCursorFlushIsCaught: dropping the Flush between the
// applied-cursor Store64 and the Fence breaks the E2 discipline.
func TestDeletedCursorFlushIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/core twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "core", "index.go")
	const sequence = `	ix.pool.Store64(c, alloc.RootAddr(rootApplied), seq)
	ix.pool.Flush(c, alloc.RootAddr(rootApplied), 8)
	ix.pool.Fence(c)
`
	const noFlush = `	ix.pool.Store64(c, alloc.RootAddr(rootApplied), seq)
	ix.pool.Fence(c)
`
	mutated := mutateSource(t, path, sequence, noFlush)
	diags := runSuite(t, root, "./internal/core", map[string][]byte{path: mutated})
	expectOnly(t, diags, "epochgate", "SetAppliedSeq stores a durable epoch/cursor word without flushing")
}

// TestDeletedDecodeCaseIsCaught: removing the code table's LAG row
// (the decode case and the encode case at once) leaves a sentinel the
// replication transport refuses with no wire encoding — wireerr.
func TestDeletedDecodeCaseIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/server twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "server", "wire.go")
	const lagRow = `	{"LAG", spash.ErrReplicaLag},
`
	mutated := mutateSource(t, path, lagRow, "")
	if diags := runSuite(t, root, "./internal/server", nil); len(diags) != 0 {
		t.Fatalf("pristine internal/server should be clean, got %v", diags)
	}
	diags := runSuite(t, root, "./internal/server", map[string][]byte{path: mutated})
	expectOnly(t, diags, "wireerr", "transport sentinel spash.ErrReplicaLag has no wire encoding")
}

// TestDeletedGuardAnnotationIsCaught: stripping SetAppliedSeq's
// //spash:guarded justification exposes its raw applied-cursor
// Store64 to pmstore.
func TestDeletedGuardAnnotationIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/core twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "core", "index.go")
	const guard = "//spash:guarded the applied-cursor word is owned by the single replication applier under the replica mutex; no concurrent HTM domain activity touches it\n"
	mutated := mutateSource(t, path, guard, "")
	diags := runSuite(t, root, "./internal/core", map[string][]byte{path: mutated})
	expectOnly(t, diags, "pmstore", "SetAppliedSeq is reachable outside an htm.Txn body")
}

// TestInjectedCtxEscapeIsCaught: a goroutine capturing the per-worker
// *pmem.Ctx is flagged by ctxescape.
func TestInjectedCtxEscapeIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/core twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "core", "index.go")
	const fence = "	ix.pool.Fence(c)\n	ix.applied.Store(seq)\n"
	const leaked = "	ix.pool.Fence(c)\n	go func() { ix.pool.Fence(c) }()\n	ix.applied.Store(seq)\n"
	mutated := mutateSource(t, path, fence, leaked)
	diags := runSuite(t, root, "./internal/core", map[string][]byte{path: mutated})
	expectOnly(t, diags, "ctxescape", `goroutine captures *pmem.Ctx "c"`)
}

// TestInjectedRecoveryPanicIsCaught: turning Recover's typed magic
// check into a panic violates panicfree.
func TestInjectedRecoveryPanicIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/core twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "core", "recover.go")
	const typed = `		return nil, nil, errors.New("core: pool does not contain an index")
`
	const panics = `		panic("core: pool does not contain an index")
`
	mutated := mutateSource(t, path, typed, panics)
	diags := runSuite(t, root, "./internal/core", map[string][]byte{path: mutated})
	expectOnly(t, diags, "panicfree", "panic in recovery path")
}

// TestDeletedErrorsIsIsCaught: demoting writeOpError's errors.Is to a
// == comparison breaks matching under %w wrapping — errtype.
func TestDeletedErrorsIsIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/server twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "server", "conn.go")
	const wrapped = "	case errors.Is(err, spash.ErrNotPrimary):\n"
	const bare = "	case err == spash.ErrNotPrimary:\n"
	mutated := mutateSource(t, path, wrapped, bare)
	diags := runSuite(t, root, "./internal/server", map[string][]byte{path: mutated})
	expectOnly(t, diags, "errtype", "use errors.Is(err, spash.ErrNotPrimary)")
}

// TestDeletedAliasJustificationIsCaught: stripping the //spash:aliased
// directive off queueOp's batch append resurfaces the respalias
// finding — justifications suppress, they don't blind the analyzer.
func TestDeletedAliasJustificationIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/server twice")
	}
	root := moduleRoot(t)
	path := filepath.Join(root, "internal", "server", "conn.go")
	const directive = "\t//spash:aliased -- the batch executes and its replies flush before the reader's Release; ops is truncated each burst\n"
	mutated := mutateSource(t, path, directive, "")
	diags := runSuite(t, root, "./internal/server", map[string][]byte{path: mutated})
	expectOnly(t, diags, "respalias", "escapes into caller-visible state through c")
}
