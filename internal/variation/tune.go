package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sta"
	"repro/internal/tech"
)

// TuneOptions configure the post-silicon tuning loop.
type TuneOptions struct {
	// GuardbandPct is added to the sensed slowdown (the in-situ monitor's
	// 1%-step reading) before allocation: sensor error headroom.
	GuardbandPct float64
	// MaxClusters / MaxBiasPairs bound the clustering (defaults 3 / 2).
	MaxClusters  int
	MaxBiasPairs int
	// MaxIters bounds the escalate-and-retry loop (default 5).
	MaxIters int
	// Workers bounds concurrent die tunings in YieldStream (0 = one per
	// CPU, 1 = sequential). Per-die seeds keep the statistics independent
	// of the worker count.
	Workers int
	// Solver picks the allocation engine (nil = the built-in two-pass
	// heuristic; core.ParseSolver builds one by name). YieldStream hands
	// the same value to every worker: every core.Solver is safe for
	// concurrent solves on distinct Instances.
	Solver core.Solver
	// TargetCI opts into adaptive termination: when positive, YieldStream
	// stops after the die whose accumulation brings the 95% Wilson score
	// interval on the recovered-yield fraction (MetAfter/Dies) to a
	// half-width at or below TargetCI (a fraction; 0.01 = ±1 percentage
	// point of yield). Dies accumulate in die order regardless, so a
	// truncated study is byte-identical to a fixed-count study of the die
	// count actually run (reported in YieldStats.Dies). Zero (the
	// default) disables it: all nDies always run.
	TargetCI float64
	// SolveCache memoizes the recurring (monitor-quantized, first-iteration)
	// allocation solves across workers, streams and requests; a
	// flow.Prefix carries one per placement. When nil, YieldStream uses a
	// private cache for the one study and TuneOn solves every attempt
	// directly. The cache must be built over the same Allocator the tuning
	// runs on.
	SolveCache *core.SolveCache
}

func (o *TuneOptions) setDefaults() {
	if o.MaxClusters == 0 {
		o.MaxClusters = 3
	}
	if o.MaxBiasPairs == 0 {
		o.MaxBiasPairs = 2
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 5
	}
}

// slackTolPct is the timing tolerance of the tuning loops: a die meets
// timing when its critical delay is within this fraction above nominal.
const slackTolPct = 0.001

// TuneResult reports one die's tuning outcome.
type TuneResult struct {
	// BetaActual is the die's true slowdown; BetaSensed what the sensor
	// saw (before guardband).
	BetaActual, BetaSensed float64
	// Solution is the last clustering actually applied to the die (nil
	// when no bias was needed or no allocation ever succeeded).
	Solution *core.Solution
	// Met reports whether the tuned die meets nominal timing.
	Met bool
	// Reason explains a failed tuning.
	Reason string
	// DcritBeforePS/DcritAfterPS are the die critical delays. When
	// Solution is non-nil, DcritAfterPS and LeakAfterNW always describe
	// the die under that solution, even if a later escalation attempt
	// failed to allocate.
	DcritBeforePS, DcritAfterPS float64
	// LeakBeforeNW/LeakAfterNW are the die leakages.
	LeakBeforeNW, LeakAfterNW float64
	// Iters counts allocation attempts.
	Iters int
}

// Tuner is the per-worker mutable state of a tuning loop: a Retimer (shared
// sta.Analyzer, private timing buffers) beside an allocation Instance
// (shared core.Allocator, private constraint and solver buffers) and a
// LeakModel (shared tables via Clone, private per-die factors). Like the
// Retimer it must not be used from more than one goroutine at a time;
// YieldStream creates one per worker via flow.MapWith.
type Tuner struct {
	rt   *Retimer
	al   *core.Allocator
	inst *core.Instance
	leak *LeakModel
}

// solve returns the allocation for a target slowdown: through cache when
// one is given, else materialized and solved on the Tuner's Instance.
// solveErr is the graceful beyond-compensation-range outcome; err is a
// structural materialization failure. The returned Solution is owned by
// the Instance or the cache (never the caller): callers clone before
// retaining.
func (tn *Tuner) solve(opts core.Options, solver core.Solver, cache *core.SolveCache) (sol *core.Solution, solveErr, err error) {
	if cache != nil {
		sol, tn.inst, solveErr, err = cache.Solve(opts, solver, tn.inst)
		return sol, solveErr, err
	}
	inst, err := tn.al.At(opts, tn.inst)
	if err != nil {
		return nil, nil, err
	}
	tn.inst = inst
	sol, solveErr = inst.Solve(solver)
	return sol, solveErr, nil
}

// NewTuner bundles a Retimer and a (possibly shared) Allocator with private
// allocation scratch.
func NewTuner(rt *Retimer, al *core.Allocator) *Tuner {
	return &Tuner{rt: rt, al: al}
}

// Retimer returns the tuner's re-timing engine.
func (tn *Tuner) Retimer() *Retimer { return tn.rt }

// Allocator returns the shared allocation engine.
func (tn *Tuner) Allocator() *core.Allocator { return tn.al }

// leakModel returns the tuner's leakage engine for proc, building (or
// rebuilding, when the process changes — e.g. the aging controller's
// per-checkpoint temperature derates) it on demand. Population loops skip
// the build by seeding tn.leak from a shared model's Clone.
func (tn *Tuner) leakModel(proc *tech.Process) *LeakModel {
	if tn.leak == nil || tn.leak.proc != proc {
		tn.leak = NewLeakModel(tn.rt.Placement(), proc)
	}
	return tn.leak
}

// TuneOn runs the paper's post-silicon flow on one die: sense the slowdown,
// allocate clustered FBB for it on the design-time (nominal) timing model,
// verify against the die's actual variation, and escalate the target
// slowdown if the non-uniform variation defeats the uniform-beta model.
// The die re-timings are the Retimer's Dcrit-only re-times into reused
// buffers (only the critical delay of a die corner is read, by the monitor
// and by the verification alike), each allocation
// attempt re-materializes the clustering instance into the Tuner's reused
// core.Instance through the shared Allocator, and the per-die leakages are
// one exp pass plus multiply-add sweeps through the Tuner's LeakModel —
// with the default heuristic solver the whole escalation loop allocates
// almost nothing beyond the solutions it reports (the ILP and local-search
// solvers buy quality with their own working memory).
func TuneOn(tn *Tuner, nom *sta.Timing, die *Die, proc *tech.Process, opts TuneOptions) (*TuneResult, error) {
	if nom == nil {
		return nil, errors.New("variation: nil nominal timing")
	}
	if opts.SolveCache != nil && opts.SolveCache.Allocator() != tn.al {
		return nil, errors.New("variation: TuneOptions.SolveCache built over a different Allocator")
	}
	opts.setDefaults()
	dieDcrit, err := tn.rt.TimeLight(die)
	if err != nil {
		return nil, err
	}
	lm := tn.leakModel(proc)
	lm.SetDie(die)
	res := &TuneResult{
		BetaActual:    dieDcrit/nom.DcritPS - 1,
		DcritBeforePS: dieDcrit,
		LeakBeforeNW:  lm.LeakageNW(nil),
	}
	limit := nom.DcritPS * (1 + slackTolPct)
	res.BetaSensed = monitor.MeasureBeta(nom, &sta.Timing{DcritPS: dieDcrit}, die.Seed)
	target := res.BetaSensed + opts.GuardbandPct
	if dieDcrit <= limit && target <= 0 {
		// Fast or nominal die: nothing to do.
		res.Met = true
		res.DcritAfterPS = dieDcrit
		res.LeakAfterNW = res.LeakBeforeNW
		return res, nil
	}
	t := newDieTail(res, die, nom.DcritPS, dieDcrit, limit, target)
	return tn.escalate(&t, 0, proc, opts)
}

// dieTail is one die in the allocate-verify-escalate loop, the slow path of
// TuneOn and of the batched YieldStream: res already holds the die's head
// analysis (re-timing, leakage baseline, sensing) and the attempts so far.
// The loop has two entry points and one body: TuneOn enters escalate at
// attempt 0, and YieldStream runs every biased lane's attempt 0 through
// allocate and one batched re-time, then enters escalate at attempt 1 only
// with the lanes that still miss timing. Either way a die sees exactly the
// float operations of TuneOn.
type dieTail struct {
	res                       *TuneResult
	die                       *Die
	nomDcrit, dieDcrit, limit float64
	// target is the allocation target of the next attempt.
	target float64
	// memoizable allows attempt 0 to go through the shared solve cache.
	memoizable bool
}

// newDieTail starts the tail of a die that needs bias. Only a target that
// can recur is worth a cache slot (a one-off target would just fill the
// bounded cache with a dead entry): a quantized reading plus the constant
// guardband, or the constant floor below. The monitor leaves negative
// readings unquantized, so a guardband that lifts one above zero gives a
// one-off per-die target.
func newDieTail(res *TuneResult, die *Die, nomDcrit, dieDcrit, limit, target float64) dieTail {
	memoizable := res.BetaSensed >= 0 || target <= 0
	if target <= 0 {
		target = 0.005 // sensor saw nothing but the die misses timing
	}
	return dieTail{res: res, die: die, nomDcrit: nomDcrit, dieDcrit: dieDcrit, limit: limit, target: target, memoizable: memoizable}
}

// allocate solves attempt iter's allocation and records it in t.res: the
// returned Solution is the detached clone res.Solution now holds. A nil
// Solution with a nil error ends the tail — the target is beyond the FBB
// compensation range and res is final. opts must have defaults applied.
func (tn *Tuner) allocate(t *dieTail, iter int, opts TuneOptions) (*core.Solution, error) {
	res := t.res
	res.Iters = iter + 1
	// Escalated targets are continuous per-die floats that never recur:
	// they bypass the cache.
	var cache *core.SolveCache
	if t.memoizable && iter == 0 {
		cache = opts.SolveCache
	}
	sol, solveErr, err := tn.solve(core.Options{
		Beta:         t.target,
		MaxClusters:  opts.MaxClusters,
		MaxBiasPairs: opts.MaxBiasPairs,
	}, opts.Solver, cache)
	if err != nil {
		return nil, err
	}
	if solveErr != nil {
		// Keep the report internally consistent: when an earlier
		// escalation already applied a solution, Solution/DcritAfterPS/
		// LeakAfterNW still describe that applied state; only a die that
		// never got bias reports its before-tuning figures, and it meets
		// timing exactly when it did before tuning.
		res.Reason = solveErr.Error()
		if res.Solution == nil {
			res.Met = t.dieDcrit <= t.limit
			res.DcritAfterPS = t.dieDcrit
			res.LeakAfterNW = res.LeakBeforeNW
		}
		return nil, nil
	}
	// sol lives in the Tuner's Instance or the cache; detach the copy we
	// report.
	res.Solution = sol.Clone()
	return res.Solution, nil
}

// verify records the die's critical delay under the attempt's solution and
// reports whether it meets timing. When it does not, the uniform-beta model
// under-estimated this die's worst corner, and the next attempt's target is
// escalated by the shortfall (a real controller bumps the bias code the
// same way).
func (t *dieTail) verify(tunedDcrit float64) bool {
	t.res.DcritAfterPS = tunedDcrit
	if tunedDcrit <= t.limit {
		t.res.Met = true
		return true
	}
	short := tunedDcrit/t.nomDcrit - 1
	t.target += short + 0.005
	return false
}

// escalate runs the tail's attempts from iter on: allocate, re-time the die
// under the solution, take its leakage, verify. The Tuner's LeakModel must
// hold the die (SetDie). opts must have defaults applied.
func (tn *Tuner) escalate(t *dieTail, iter int, proc *tech.Process, opts TuneOptions) (*TuneResult, error) {
	lm := tn.leakModel(proc)
	for ; iter < opts.MaxIters; iter++ {
		sol, err := tn.allocate(t, iter, opts)
		if err != nil {
			return nil, err
		}
		if sol == nil {
			return t.res, nil
		}
		tuned, err := tn.rt.TimeWithBiasLight(t.die, proc, sol.Assign)
		if err != nil {
			return nil, err
		}
		t.res.LeakAfterNW = lm.LeakageNW(sol.Assign)
		if t.verify(tuned) {
			return t.res, nil
		}
	}
	t.res.Reason = fmt.Sprintf("not met after %d escalations", opts.MaxIters)
	return t.res, nil
}

// YieldAccum is the raw, order-dependent accumulator state of a yield
// study: the exact partial sums and counters YieldStream folds dies into, in
// die order, before the final normalization produces a YieldStats. It exists
// so a stream can be *resumed*: a study that died after die k restarts from
// the accumulator state covering dies [0, k) and the suffix accumulation
// performs the identical float operation sequence an unbroken run would —
// the final statistics are byte-identical. The JSON form round-trips every
// float64 exactly (Go's encoder emits the shortest representation that
// parses back to the same bits), so the state survives a wire crossing
// unchanged. Checkpoint states always cover at least one die, which keeps
// WorstBetaPct finite (the fresh accumulator's -Inf sentinel never needs to
// be marshaled).
type YieldAccum struct {
	// Dies counts the dies folded in so far; the state covers dies
	// [0, Dies) of the study.
	Dies int `json:"dies"`
	// MetBefore / MetAfter count dies meeting timing before / after tuning.
	MetBefore int `json:"metBefore"`
	MetAfter  int `json:"metAfter"`
	// SumBetaPct is the running sum of per-die slowdowns (in percent);
	// WorstBetaPct the running maximum.
	SumBetaPct   float64 `json:"sumBetaPct"`
	WorstBetaPct float64 `json:"worstBetaPct"`
	// SumLeak* are the running leakage sums (all dies / all dies after
	// tuning / tuned dies only).
	SumLeakBeforeNW    float64 `json:"sumLeakBeforeNW"`
	SumLeakAfterNW     float64 `json:"sumLeakAfterNW"`
	SumLeakTunedOnlyNW float64 `json:"sumLeakTunedOnlyNW"`
	// TunedDies counts dies that received bias; FailedCompensations dies
	// that missed timing even after tuning.
	TunedDies           int `json:"tunedDies"`
	FailedCompensations int `json:"failedCompensations"`
	// SumIters / SumClusters accumulate tuning effort over tuned dies.
	SumIters    int `json:"sumIters"`
	SumClusters int `json:"sumClusters"`
}

// newYieldAccum returns the fresh (zero-die) accumulator. WorstBetaPct
// starts at -Inf, not zero: an all-fast population's worst slowdown is
// negative, and a zero floor would silently report it as exactly nominal.
func newYieldAccum() YieldAccum {
	return YieldAccum{WorstBetaPct: math.Inf(-1)}
}

// fold accumulates one die's result, in die order. The operations (and
// their order) are the byte-identity contract of resumed streams: a suffix
// folded onto a prior state reproduces an unbroken run exactly.
func (a *YieldAccum) fold(r *TuneResult, limit float64) {
	a.Dies++
	a.SumBetaPct += r.BetaActual * 100
	if r.BetaActual*100 > a.WorstBetaPct {
		a.WorstBetaPct = r.BetaActual * 100
	}
	if r.DcritBeforePS <= limit {
		a.MetBefore++
	}
	if r.Met {
		a.MetAfter++
	}
	a.SumLeakBeforeNW += r.LeakBeforeNW
	a.SumLeakAfterNW += r.LeakAfterNW
	if r.Solution != nil {
		a.TunedDies++
		a.SumLeakTunedOnlyNW += r.LeakAfterNW
		a.SumIters += r.Iters
		a.SumClusters += r.Solution.Clusters
	}
	if !r.Met {
		a.FailedCompensations++
	}
}

// Validate reports whether fold can reach this state in a stream run with
// opts (its defaults applied here): every count lies in [0, Dies], each die
// either met timing after tuning or counts as a failed compensation, every
// tuned die made between 1 and MaxIters allocation attempts and applied a
// solution of between 1 and MaxClusters clusters, the leakage sums are
// non-negative, and the tuned dies' leakage sum, a subset of the after-tuning
// sum's non-negative terms added in the same order, does not exceed it. A
// resumed stream folds onto its prior as given, so an impossible one would
// finalize into impossible statistics (a yield above 100%, a mean attempt
// count above MaxIters).
func (a *YieldAccum) Validate(opts TuneOptions) error {
	opts.setDefaults()
	if a.Dies < 0 {
		return fmt.Errorf("variation: impossible accumulator: dies %d is negative", a.Dies)
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"metBefore", a.MetBefore}, {"metAfter", a.MetAfter},
		{"tunedDies", a.TunedDies}, {"failedCompensations", a.FailedCompensations},
	} {
		if c.n < 0 || c.n > a.Dies {
			return fmt.Errorf("variation: impossible accumulator: %s %d out of range [0, %d]", c.name, c.n, a.Dies)
		}
	}
	if a.MetAfter+a.FailedCompensations != a.Dies {
		return fmt.Errorf("variation: impossible accumulator: metAfter %d + failedCompensations %d != dies %d",
			a.MetAfter, a.FailedCompensations, a.Dies)
	}
	for _, e := range []struct {
		name     string
		sum, per int
	}{
		{"sumIters", a.SumIters, opts.MaxIters}, {"sumClusters", a.SumClusters, opts.MaxClusters},
	} {
		if e.sum < a.TunedDies {
			return fmt.Errorf("variation: impossible accumulator: %s %d below tunedDies %d", e.name, e.sum, a.TunedDies)
		}
		// e.sum > TunedDies·per, without forming a product that can
		// overflow.
		if q := e.sum / e.per; q > a.TunedDies || q == a.TunedDies && e.sum%e.per != 0 {
			return fmt.Errorf("variation: impossible accumulator: %s %d above tunedDies %d × %d",
				e.name, e.sum, a.TunedDies, e.per)
		}
	}
	for _, s := range []struct {
		name string
		v    float64
	}{
		{"sumLeakBeforeNW", a.SumLeakBeforeNW}, {"sumLeakAfterNW", a.SumLeakAfterNW},
		{"sumLeakTunedOnlyNW", a.SumLeakTunedOnlyNW},
	} {
		if !(s.v >= 0) {
			return fmt.Errorf("variation: impossible accumulator: %s %g is not non-negative", s.name, s.v)
		}
	}
	if a.SumLeakTunedOnlyNW > a.SumLeakAfterNW {
		return fmt.Errorf("variation: impossible accumulator: sumLeakTunedOnlyNW %g above sumLeakAfterNW %g",
			a.SumLeakTunedOnlyNW, a.SumLeakAfterNW)
	}
	return nil
}

// stats normalizes the accumulated sums into the study's YieldStats.
func (a *YieldAccum) stats() *YieldStats {
	st := &YieldStats{
		Dies:                a.Dies,
		MetBefore:           a.MetBefore,
		MetAfter:            a.MetAfter,
		MeanBetaPct:         a.SumBetaPct / float64(a.Dies),
		WorstBetaPct:        a.WorstBetaPct,
		MeanLeakBeforeNW:    a.SumLeakBeforeNW / float64(a.Dies),
		MeanLeakAfterNW:     a.SumLeakAfterNW / float64(a.Dies),
		TunedDies:           a.TunedDies,
		FailedCompensations: a.FailedCompensations,
	}
	if a.TunedDies > 0 {
		st.MeanLeakTunedOnlyNW = a.SumLeakTunedOnlyNW / float64(a.TunedDies)
		st.MeanTuneIters = float64(a.SumIters) / float64(a.TunedDies)
		st.MeanClustersPerTuned = float64(a.SumClusters) / float64(a.TunedDies)
	}
	return st
}

// YieldStats aggregates a Monte-Carlo tuning study.
type YieldStats struct {
	Dies                 int
	MetBefore, MetAfter  int
	MeanBetaPct          float64
	WorstBetaPct         float64
	MeanLeakBeforeNW     float64
	MeanLeakAfterNW      float64
	MeanLeakTunedOnlyNW  float64 // average leakage of dies that got bias
	TunedDies            int
	FailedCompensations  int
	MeanTuneIters        float64
	MeanClustersPerTuned float64
}

// YieldPct returns before/after parametric yield percentages.
func (y *YieldStats) YieldPct() (before, after float64) {
	if y.Dies == 0 {
		return 0, 0
	}
	return 100 * float64(y.MetBefore) / float64(y.Dies),
		100 * float64(y.MetAfter) / float64(y.Dies)
}

// yieldChunk bounds how many per-die results a yield study holds at once:
// dies are tuned in windows of this size and handed to the consumer (or the
// statistics accumulator) before the next window starts, so a million-die
// stream retains a constant O(yieldChunk) working set instead of one
// TuneResult per die.
const yieldChunk = 256

// batchWidth is the die-batch width of YieldStream's population kernels.
// The batch amortizes per-gate structure lookups across its lanes (sampler
// waves, STA topo walks), so wider is better until the lane-contiguous
// working set outgrows the cache; a multiple of four fills the AVX2 lane
// blocks of sta.Analyzer.RunLightBatch. The width never changes results,
// only locality: tests vary it to prove that.
var batchWidth = 16

// wilsonZ is the two-sided 95% normal quantile used by the adaptive
// termination interval.
const wilsonZ = 1.959963984540054

// wilsonHalfWidth returns the half-width of the 95% Wilson score interval
// for successes out of n trials — the adaptive-termination criterion on the
// recovered-yield fraction. The Wilson form stays honest at the extremes
// (p̂ = 0 or 1 still yields a positive width shrinking as 1/n), where the
// naive normal interval collapses to zero and would stop a study after its
// first die.
func wilsonHalfWidth(n, successes int) float64 {
	fn := float64(n)
	p := float64(successes) / fn
	z2 := wilsonZ * wilsonZ
	return wilsonZ / (1 + z2/fn) * math.Sqrt(p*(1-p)/fn+z2/(4*fn*fn))
}

// YieldStream runs the Monte-Carlo tuning study — the system-level
// experiment motivating the paper ("bring the slow dies back to within the
// range of acceptable specs") — over a shared Analyzer, a shared Allocator
// built on its nominal timing, and that timing. It samples nDies dies, tunes
// each, and aggregates the yield and leakage statistics. Dies are tuned in
// bounded windows (yieldChunk) on a flow worker pool (opts.Workers bounds
// it; default one per CPU), each worker carrying a private Tuner; cancelling
// ctx aborts the study. When emit is non-nil, it is invoked once per die in
// strictly increasing die order with that die's TuneResult (nil emit just
// aggregates). The result passed to emit is owned by the callee
// only for the duration of the call at the aggregate level — it is never
// referenced again by YieldStream, so emit may retain it, but memory stays
// bounded only if emit does not.
//
// Within a window, dies move through the population kernels in batches of
// batchWidth: one SoA sample block per batch, one die-major batched
// re-timing, and one fused leakage sweep over the lanes that need no bias.
// The dies that miss timing (or whose monitor reading demands bias) get
// their first allocation in lane order and are re-timed under it together
// in a second batched re-timing; only those still missing timing fall back
// to the scalar escalation loop. Every lane preserves the per-die float operation
// order of the scalar path, so the batch width (and the worker count, and
// the chunk size) never changes a single byte of the per-die results or the
// aggregate.
//
// Per-die seeds are mixed from the die index alone (DieSeed), and the
// aggregated statistics are accumulated in die order, so they are
// byte-identical at any worker count or chunk size. When
// opts.TargetCI is set, the stream additionally stops after the die whose
// accumulation satisfies the interval — identical to a fixed-count study of
// exactly that many dies. An emit error, a tuning error, or ctx cancellation
// aborts the stream and is returned; the partially accumulated stats are
// discarded.
func YieldStream(ctx context.Context, an *sta.Analyzer, al *core.Allocator, nom *sta.Timing, proc *tech.Process, m Model, nDies int, seed int64, opts TuneOptions, emit func(die int, r *TuneResult) error) (*YieldStats, error) {
	return YieldStreamResumable(ctx, an, al, nom, proc, m, nDies, seed, opts, StreamOptions{}, emit)
}

// StreamOptions controls the resume and checkpoint behavior of
// YieldStreamResumable. The zero value reproduces YieldStream exactly: start
// at die 0, no prior state, no checkpoints.
type StreamOptions struct {
	// StartDie begins the stream at this absolute die index instead of 0.
	// Dies [0, StartDie) are assumed already studied; their accumulator
	// state must be supplied via Prior. Per-die seeds are absolute
	// (DieSeed(seed, die)), so the emitted suffix is byte-identical to the
	// tail of an unbroken run over the same nDies.
	StartDie int
	// Prior is the accumulator state covering dies [0, StartDie). Required
	// (with Prior.Dies == StartDie) when StartDie > 0; must be nil or
	// zero-die otherwise.
	Prior *YieldAccum
	// CheckpointEvery, when positive, invokes OnCheckpoint after every
	// CheckpointEvery-th die (at absolute die counts divisible by it), with
	// the accumulator state at that point. A stream resumed from a
	// checkpoint re-emits the remaining checkpoints at the same absolute
	// positions. No checkpoint is emitted at the very end of the stream
	// (the footer stats cover it) or after adaptive termination.
	CheckpointEvery int
	// OnCheckpoint receives the die count covered (== acc.Dies) and a copy
	// of the accumulator. A non-nil error aborts the stream.
	OnCheckpoint func(die int, acc YieldAccum) error
}

// YieldStreamResumable is YieldStream with an offset start and periodic
// accumulator checkpoints. Resuming with the accumulator state captured at
// die k replays the identical float operation sequence of an unbroken run's
// tail: per-die results, checkpoint states and the final YieldStats are all
// byte-identical. StartDie == nDies is the degenerate footer-only resume —
// no dies are tuned and the stats are finalized straight from Prior.
func YieldStreamResumable(ctx context.Context, an *sta.Analyzer, al *core.Allocator, nom *sta.Timing, proc *tech.Process, m Model, nDies int, seed int64, opts TuneOptions, sopts StreamOptions, emit func(die int, r *TuneResult) error) (*YieldStats, error) {
	if nDies <= 0 {
		return nil, errors.New("variation: nDies must be positive")
	}
	if sopts.StartDie < 0 || sopts.StartDie > nDies {
		return nil, fmt.Errorf("variation: StartDie %d out of range [0, %d]", sopts.StartDie, nDies)
	}
	if sopts.StartDie > 0 {
		if sopts.Prior == nil {
			return nil, errors.New("variation: StartDie > 0 requires a Prior accumulator")
		}
		if sopts.Prior.Dies != sopts.StartDie {
			return nil, fmt.Errorf("variation: Prior covers %d dies, StartDie is %d", sopts.Prior.Dies, sopts.StartDie)
		}
	} else if sopts.Prior != nil && sopts.Prior.Dies != 0 {
		return nil, fmt.Errorf("variation: Prior covers %d dies but StartDie is 0", sopts.Prior.Dies)
	}
	opts.setDefaults()
	if sopts.Prior != nil {
		if err := sopts.Prior.Validate(opts); err != nil {
			return nil, err
		}
	}
	if opts.SolveCache == nil {
		opts.SolveCache = core.NewSolveCache(al)
	} else if opts.SolveCache.Allocator() != al {
		return nil, errors.New("variation: TuneOptions.SolveCache built over a different Allocator")
	}
	pl := an.Placement()
	limit := nom.DcritPS * (1 + slackTolPct)
	width := batchWidth

	// The assignment-independent structure is built once for the whole
	// stream: the Sampler's gate-centre geometry and the LeakModel's
	// per-gate base leakage and per-level bias tables are immutable, so
	// every worker Clones them — private generator, die buffer and
	// per-die leak factors over shared tables.
	smpBase := NewSampler(pl, proc, m)
	leakBase := NewLeakModel(pl, proc)

	// Worker states are pooled across chunks: between MapWith calls every
	// worker is idle, so the whole pool is free again — each chunk checks
	// out warmed Tuners, Samplers and batch blocks instead of re-growing
	// O(gates·width) scratch ~nDies/yieldChunk times over a long stream.
	type yieldWorker struct {
		tn    *Tuner
		smp   *Sampler
		blk   *DieBlock
		tb    *sta.TimingBatch
		seeds []int64
		fast  []int     // no-bias lanes of the current batch
		leakN []float64 // their unbiased leakages
		tails []dieTail // biased lanes whose first allocation succeeded
	}
	var (
		tmu     sync.Mutex
		workers []*yieldWorker
		avail   []*yieldWorker
	)
	checkout := func() *yieldWorker {
		tmu.Lock()
		defer tmu.Unlock()
		if n := len(avail); n > 0 {
			w := avail[n-1]
			avail = avail[:n-1]
			return w
		}
		tn := NewTuner(NewRetimer(an), al)
		tn.leak = leakBase.Clone()
		w := &yieldWorker{tn: tn, smp: smpBase.Clone(), blk: &DieBlock{}}
		workers = append(workers, w)
		return w
	}

	// runBatch carries one batch of dies [base, base+cnt) through the
	// population kernels: sample block, batched re-timing, per-lane
	// sense-and-branch, first allocation of each biased lane, one batched
	// re-timing of those under their allocations, the scalar escalation
	// loop for lanes still missing timing, and one fused leakage sweep for
	// the lanes that need no bias. Per lane the results are bit-identical
	// to TuneOn of the same die.
	runBatch := func(w *yieldWorker, base, cnt int) ([]*TuneResult, error) {
		w.seeds = w.seeds[:0]
		for i := 0; i < cnt; i++ {
			w.seeds = append(w.seeds, DieSeed(seed, base+i))
		}
		blk := w.smp.SampleBlockInto(w.blk, w.seeds)
		w.blk = blk
		tb, err := an.RunLightBatch(blk.DelayScale, cnt, w.tb)
		if err != nil {
			return nil, err
		}
		w.tb = tb
		lm := w.tn.leakModel(proc)
		n := blk.N
		out := make([]*TuneResult, cnt)
		w.fast = w.fast[:0]
		w.tails = w.tails[:0]
		for d := 0; d < cnt; d++ {
			die := blk.Die(d)
			dieDcrit := tb.DcritPS[d]
			res := &TuneResult{
				BetaActual:    dieDcrit/nom.DcritPS - 1,
				DcritBeforePS: dieDcrit,
			}
			out[d] = res
			res.BetaSensed = monitor.MeasureBeta(nom, &sta.Timing{DcritPS: dieDcrit}, die.Seed)
			target := res.BetaSensed + opts.GuardbandPct
			if dieDcrit <= limit && target <= 0 {
				// Fast or nominal die: complete it in-batch and defer
				// its (unbiased) leakage to the fused block sweep.
				res.Met = true
				res.DcritAfterPS = dieDcrit
				w.fast = append(w.fast, d)
				continue
			}
			lm.SetDie(die)
			res.LeakBeforeNW = lm.LeakageNW(nil)
			t := newDieTail(res, die, nom.DcritPS, dieDcrit, limit, target)
			sol, err := w.tn.allocate(&t, 0, opts)
			if err != nil {
				return nil, err
			}
			if sol == nil {
				continue // beyond the compensation range: res is final
			}
			res.LeakAfterNW = lm.LeakageNW(sol.Assign)
			// The k-th biased lane's scale goes to row k <= d of the
			// block: every die is sensed from its batched Dcrit, and from
			// here on only the DVthV rows are read.
			k := len(w.tails)
			if err := w.tn.rt.biasScale(blk.DelayScale[k*n:(k+1)*n], die, proc, sol.Assign); err != nil {
				return nil, err
			}
			w.tails = append(w.tails, t)
		}
		if m := len(w.tails); m > 0 {
			// Round the re-timing up to whole four-lane blocks where the
			// block has the rows; the extra rows keep their sampled
			// scales and their lanes are never read.
			pw := min((m+3)&^3, cnt)
			if tb, err = an.RunLightBatch(blk.DelayScale[:pw*n], pw, tb); err != nil {
				return nil, err
			}
			w.tb = tb
			for k := range w.tails {
				t := &w.tails[k]
				if t.verify(tb.DcritPS[k]) {
					continue
				}
				lm.SetDie(t.die)
				if _, err := w.tn.escalate(t, 1, proc, opts); err != nil {
					return nil, err
				}
			}
		}
		w.leakN = lm.LeakageBlockNW(blk, w.fast, w.leakN[:0])
		for k, d := range w.fast {
			out[d].LeakBeforeNW = w.leakN[k]
			out[d].LeakAfterNW = w.leakN[k]
		}
		return out, nil
	}

	// The accumulator starts fresh (WorstBetaPct at -Inf so an all-fast
	// population's negative worst slowdown is not floored at nominal) or
	// from the caller's prior state when resuming; acc.Dies is the absolute
	// die index throughout, so checkpoint positions and the adaptive
	// termination point are independent of where the stream started.
	acc := newYieldAccum()
	if sopts.Prior != nil {
		acc = *sopts.Prior
	}
	done := false
	for lo := sopts.StartDie; lo < nDies && !done; lo += yieldChunk {
		hi := min(lo+yieldChunk, nDies)
		nBatches := (hi - lo + width - 1) / width
		avail = append(avail[:0], workers...)
		results, err := flow.MapWith(ctx, opts.Workers, nBatches,
			checkout,
			func(_ context.Context, w *yieldWorker, b int) ([]*TuneResult, error) {
				base := lo + b*width
				return runBatch(w, base, min(width, hi-base))
			})
		if err != nil {
			return nil, err
		}
		for _, batch := range results {
			for _, r := range batch {
				idx := acc.Dies
				acc.fold(r, limit)
				if emit != nil {
					if err := emit(idx, r); err != nil {
						return nil, err
					}
				}
				if opts.TargetCI > 0 && wilsonHalfWidth(acc.Dies, acc.MetAfter) <= opts.TargetCI {
					// Converged: drop the rest of the window. Everything
					// accumulated so far is exactly a processed-die study.
					done = true
					break
				}
				if sopts.CheckpointEvery > 0 && sopts.OnCheckpoint != nil &&
					acc.Dies%sopts.CheckpointEvery == 0 && acc.Dies < nDies {
					if err := sopts.OnCheckpoint(acc.Dies, acc); err != nil {
						return nil, err
					}
				}
			}
			if done {
				break
			}
		}
	}
	return acc.stats(), nil
}
