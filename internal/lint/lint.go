// Package lint registers the repo's contract analyzers: the passes that
// turn runtime invariants — deterministic kernels never touching clocks or
// global entropy, scratch buffers never escaping, worker state never
// leaking across pool goroutines — into compile-time errors. cmd/fbbvet
// runs them (plus stock `go vet`) over the module; see README "Static
// contracts".
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/detrand"
	"repro/internal/lint/scratchbuf"
	"repro/internal/lint/workerstate"
)

// All returns every contract analyzer in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		scratchbuf.Analyzer,
		workerstate.Analyzer,
	}
}
