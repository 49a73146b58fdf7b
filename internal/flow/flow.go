// Package flow is the stage-cached, concurrent experiment engine behind the
// drivers in experiments.go.
//
// The reproduction flow factors into a deterministic prefix — benchmark
// generation, row placement, nominal STA — followed by cheap per-point work
// (problem construction and allocation for one (beta, C) pair). Every
// experiment grid re-visits the same prefixes many times: Table 1 alone runs
// four (beta, C) points per benchmark, and the cluster sweep runs ten on one
// design. The Engine memoizes each prefix in a memo.Memo so it is computed
// once per (benchmark, forceRows) and shared, while the Map/MapAll pool
// fans the per-point work out over a bounded number of workers with
// context cancellation and deterministic, index-ordered results.
//
// Everything a Prefix exposes is immutable after construction (the placement
// and timing structs are built eagerly and only read by the allocators),
// except its memos (Solves and Answers), which are concurrency-safe, so a
// single cached instance may be used from any number of goroutines.
package flow

import (
	"context"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
)

// Prefix is the deterministic front of the flow: the generated (or supplied)
// design, its row placement, and the nominal static timing analysis. All
// downstream stages — problem construction, allocation, layout — only read
// it, so one Prefix is safely shared across concurrent experiment points.
type Prefix struct {
	Design    *netlist.Design
	Placement *place.Placement
	Timing    *sta.Timing
	// Analyzer is the reusable STA engine over Placement (Timing is its
	// nominal run). It is immutable and safe to share across workers;
	// each worker keeps its own sta.Timing scratch buffer for Run.
	Analyzer *sta.Analyzer
	// Allocator is the reusable clustering engine over (Placement,
	// Timing): every (beta, C) experiment point materializes its
	// core.Instance through it. Like the Analyzer
	// it is immutable and shared; each worker keeps its own core.Instance
	// scratch.
	Allocator *core.Allocator
	// Solves is the prefix-level allocation-solve cache over Allocator:
	// population studies hand it to variation.TuneOptions.SolveCache so
	// the monitor-quantized first-iteration solves are shared across
	// workers, streams and requests — the first yield study against this
	// prefix warms it for every later one. The cache is concurrency-safe;
	// like everything else here it is shared, never rebuilt.
	Solves *core.SolveCache
	// Answers memoizes whole design-time answers on this prefix, one per
	// allocation Point, at most maxAnswers of them: fbbd computes each
	// flow-mode /v1/tune response through it as its encoded bytes, so a
	// repeated request is one lookup. Like Solves it is shared, and it
	// goes with the prefix when a cache evicts it.
	Answers *memo.Memo[Point, []byte]
}

// Point is one design-time allocation point on a prefix, as a request gives
// it: the allocation fields of repro.Config before any default is applied.
// Together with the prefix (design, name and row count) it determines the
// whole design-time answer.
type Point struct {
	Beta         float64
	MaxClusters  int
	MaxBiasPairs int
	Solver       string
}

// maxAnswers bounds one prefix's answer memo, the bound core.SolveCache
// uses: the points a caller revisits are a small grid, and the bound only
// guards against a caller sweeping a continuous beta.
const maxAnswers = 256

// Engine memoizes flow prefixes. The zero value is not usable; construct
// with New.
type Engine struct {
	lib      *cell.Library
	prefixes *memo.Memo[prefixKey, *Prefix]
}

type prefixKey struct {
	name      string
	forceRows int
}

// enginePrefixes bounds an Engine's prefix memo. It holds every built-in
// benchmark (gen.All lists nine) at automatic rows and a few variants, so
// no experiment grid builds a prefix twice.
const enginePrefixes = 16

// New returns an Engine over the default characterized library.
func New() *Engine { return NewWithLibrary(cell.Default()) }

// NewWithLibrary returns an Engine whose benchmarks are mapped to lib.
func NewWithLibrary(lib *cell.Library) *Engine {
	return &Engine{lib: lib, prefixes: memo.New[prefixKey, *Prefix](enginePrefixes)}
}

// Prefix runs stages 1-3 — generation, placement, nominal STA — memoized
// per (benchmark, forceRows). Concurrent callers of the same key block for
// one shared computation. forceRows overrides the placer's automatic row
// count (0 = automatic).
func (e *Engine) Prefix(name string, forceRows int) (*Prefix, error) {
	return e.prefixes.Get(context.TODO(), prefixKey{name, forceRows}, func() (*Prefix, error) {
		d, err := gen.Build(name, e.lib)
		if err != nil {
			return nil, err
		}
		return PrefixFor(d, e.lib, forceRows)
	})
}

// prefixBuilds counts every Prefix constructed process-wide. Serving layers
// whose whole point is to NOT rebuild prefixes (the fbbd coalesced cache)
// assert on it: N concurrent identical requests must move it by exactly one.
var prefixBuilds atomic.Int64

// PrefixBuilds reports how many Prefixes have been constructed process-wide
// since start. It is a conformance-test hook: delta across a traffic burst
// equals the number of distinct placements actually built, so coalescing
// and cache-sharing bugs (double builds of one netlist) show up as a count,
// not a heisenbug.
func PrefixBuilds() int64 { return prefixBuilds.Load() }

// PrefixFor computes stages 2-3 (placement and nominal STA) for an already
// built design, uncached. It is the computation Engine.Prefix memoizes, and
// the path custom (non-benchmark) designs take.
func PrefixFor(d *netlist.Design, lib *cell.Library, forceRows int) (*Prefix, error) {
	prefixBuilds.Add(1)
	pl, err := place.Place(d, lib, place.Options{ForceRows: forceRows})
	if err != nil {
		return nil, err
	}
	// Warm the placement's SoA gate-centre cache eagerly: every variation
	// Sampler over this prefix (one per yield worker) shares it, and
	// building it here keeps the first per-die sample on the hot path
	// instead of paying the one-time sweep under traffic.
	pl.Centers()
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return nil, err
	}
	tm, err := an.Run(nil, nil)
	if err != nil {
		return nil, err
	}
	al, err := core.NewAllocator(pl, tm)
	if err != nil {
		return nil, err
	}
	return &Prefix{Design: d, Placement: pl, Timing: tm, Analyzer: an, Allocator: al,
		Solves: core.NewSolveCache(al), Answers: memo.New[Point, []byte](maxAnswers)}, nil
}
