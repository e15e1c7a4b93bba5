// Package analysis assembles the spash-vet analyzer suite. The nine
// analyzers mechanically enforce the invariants DESIGN.md states in
// prose: PM mutation discipline (pmstore), flush-ordered durability
// (flushfence), per-worker context confinement (ctxescape), panic-free
// recovery (panicfree), wrappable typed errors (errtype), the
// zero-copy RESP aliasing contract (respalias), goroutine shutdown
// edges in the serving layers (golifetime), replication epoch fencing
// and durable-word ordering (epochgate), and wire error round-tripping
// (wireerr). The last four are cross-package: they exchange facts
// through the framework's topological run.
package analysis

import (
	"spash/internal/analysis/ctxescape"
	"spash/internal/analysis/epochgate"
	"spash/internal/analysis/errtype"
	"spash/internal/analysis/flushfence"
	"spash/internal/analysis/framework"
	"spash/internal/analysis/golifetime"
	"spash/internal/analysis/panicfree"
	"spash/internal/analysis/pmstore"
	"spash/internal/analysis/respalias"
	"spash/internal/analysis/wireerr"
)

// Suite returns the full analyzer suite in reporting order.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		pmstore.Analyzer,
		flushfence.Analyzer,
		ctxescape.Analyzer,
		panicfree.Analyzer,
		errtype.Analyzer,
		respalias.Analyzer,
		golifetime.Analyzer,
		epochgate.Analyzer,
		wireerr.Analyzer,
	}
}
