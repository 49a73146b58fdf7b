package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro"
	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/memo"
	"repro/internal/tech"
	"repro/internal/variation"
)

// This file defines the wire types of the fbbd JSON API and their
// validation. Responses carry only deterministic fields (no wall-clock
// runtimes), so the same config always marshals to the same bytes — the
// property the differential tests pin against the in-process drivers.

// DesignRef selects the design a request operates on: a built-in Table 1
// benchmark by name, or an uploaded ISCAS .bench netlist. Exactly one of
// Benchmark/Netlist must be set. Structurally identical netlists with the
// same design name hash to the same prefix-cache key regardless of how
// they arrived, so repeated uploads of one design share one cached
// placement (the name is part of the key — it is reported back in
// summaries — so renaming an upload makes a distinct entry).
type DesignRef struct {
	// Benchmark names a built-in Table 1 design.
	Benchmark string `json:"benchmark,omitempty"`
	// Netlist is an ISCAS .bench netlist to place and tune.
	Netlist string `json:"netlist,omitempty"`
	// Name labels an uploaded netlist (default "custom").
	Name string `json:"name,omitempty"`
	// ForceRows overrides the placer's automatic row count (0 = auto).
	ForceRows int `json:"forceRows,omitempty"`
}

// TuneRequest is the body of POST /v1/tune. Without Die it runs the
// design-time flow (place, time, allocate for Beta) and returns a
// repro.Summary; with Die it samples that die from the variation model and
// runs the paper's post-silicon tuning loop on it.
type TuneRequest struct {
	DesignRef
	// Beta is the slowdown coefficient to compensate (default 0.05);
	// ignored in die mode, where the sensed slowdown drives the loop.
	Beta float64 `json:"beta,omitempty"`
	// MaxClusters is C (default 3); MaxBiasPairs caps routed pairs
	// (default 2).
	MaxClusters  int `json:"maxClusters,omitempty"`
	MaxBiasPairs int `json:"maxBiasPairs,omitempty"`
	// Solver names the allocation engine (default "heuristic").
	Solver string `json:"solver,omitempty"`
	// Die switches to post-silicon die tuning.
	Die *DieRequest `json:"die,omitempty"`
}

// DieRequest configures post-silicon tuning of one sampled die.
type DieRequest struct {
	// Seed samples the die from the variation model (used verbatim; the
	// /v1/yield stream mixes per-die seeds with variation.DieSeed).
	Seed int64 `json:"seed"`
	// GuardbandPct is added to the sensed slowdown (default 0.005).
	GuardbandPct float64 `json:"guardbandPct,omitempty"`
	// MaxIters bounds the escalate-and-retry loop (default 5).
	MaxIters int `json:"maxIters,omitempty"`
}

// TuneResponse is the body of a successful /v1/tune.
type TuneResponse struct {
	// Summary is set in flow mode (no die requested).
	Summary *repro.Summary `json:"summary,omitempty"`
	// ILP carries the branch-and-bound diagnostics of a flow-mode tune
	// whose solver ran the exact engine ("ilp"). The solves run
	// under node budgets, so every field is deterministic and safe to
	// include in the byte-reproducible response.
	ILP *ILPDiag `json:"ilp,omitempty"`
	// Die is set in die mode.
	Die *DieResult `json:"die,omitempty"`
}

// ILPDiag is the wire form of the exact solver's ilp.Result diagnostics.
type ILPDiag struct {
	// Status is the branch-and-bound outcome ("optimal",
	// "feasible(budget)", ...); Proven mirrors status == "optimal".
	Status string `json:"status"`
	Proven bool   `json:"proven"`
	// Nodes counts explored branch-and-bound nodes, StrongLPs the child
	// relaxations solved during strong branching.
	Nodes     int `json:"nodes"`
	StrongLPs int `json:"strongLPs,omitempty"`
	// GapPct is the relative optimality gap of a budget-truncated solve
	// (0 when proven).
	GapPct float64 `json:"gapPct"`
}

// ilpDiag digests a Result's exact-solve diagnostics (nil when none ran).
func ilpDiag(res *repro.Result) *ILPDiag {
	ir := res.ILPResult
	if ir == nil {
		return nil
	}
	return &ILPDiag{
		Status:    ir.Status.String(),
		Proven:    ir.Status == ilp.OptimalProven,
		Nodes:     ir.Nodes,
		StrongLPs: ir.StrongLPs,
		GapPct:    ir.Gap() * 100,
	}
}

// YieldRequest is the body of POST /v1/yield: a Monte-Carlo yield study
// streamed as NDJSON — one DieResult line per die in die order, then a
// single YieldFooter line with the aggregate statistics.
type YieldRequest struct {
	DesignRef
	// Dies is the Monte-Carlo sample size.
	Dies int `json:"dies"`
	// Seed seeds the study; die i is sampled with DieSeed(seed, i).
	Seed int64 `json:"seed,omitempty"`
	// MaxClusters / MaxBiasPairs / Solver / GuardbandPct / MaxIters
	// configure each die's tuning as in TuneRequest.
	MaxClusters  int     `json:"maxClusters,omitempty"`
	MaxBiasPairs int     `json:"maxBiasPairs,omitempty"`
	Solver       string  `json:"solver,omitempty"`
	GuardbandPct float64 `json:"guardbandPct,omitempty"`
	MaxIters     int     `json:"maxIters,omitempty"`
	// Workers bounds the per-request die-tuning parallelism (0 = one per
	// CPU, 1 = sequential). The aggregate statistics are identical at any
	// setting.
	Workers int `json:"workers,omitempty"`
	// TargetCI opts into adaptive termination: when positive, the study
	// stops once the 95% Wilson interval half-width on the recovered-yield
	// fraction reaches it (a fraction; 0.01 = ±1 yield point), and the
	// footer's dies field reports how many dies actually ran. Dies then
	// acts as the sample-size cap. Default 0: exactly Dies dies run.
	TargetCI float64 `json:"targetCI,omitempty"`
	// Checkpoint, when positive, interleaves a YieldCheckpoint line into
	// the stream after every Checkpoint-th die (at absolute die counts
	// divisible by it, never at the very end). The line carries the raw
	// accumulator state a later request can resume from. Default 0: no
	// checkpoint lines — the stream bytes are identical to earlier
	// protocol versions.
	Checkpoint int `json:"checkpoint,omitempty"`
	// Resume restarts a broken stream: the server begins at die
	// Resume.Ckpt, folding new dies into Resume.Acc. Because per-die seeds
	// are absolute (variation.DieSeed) and the accumulator round-trips
	// float64s exactly, the emitted suffix — remaining die lines,
	// remaining checkpoints, footer — is byte-identical to the tail of an
	// unbroken run with the same parameters.
	Resume *YieldCheckpoint `json:"resume,omitempty"`
}

// YieldCheckpoint is both a mid-stream NDJSON checkpoint line and the resume
// token of a later request: the accumulator state covering dies [0, Ckpt).
// Clients discriminate it from die lines by its "ckpt" marker key, exactly
// as the footer is discriminated by "stats".
type YieldCheckpoint struct {
	// Ckpt is the number of dies covered (== Acc.Dies); the resumed stream
	// starts at this die index.
	Ckpt int `json:"ckpt"`
	// Acc is the raw accumulator state.
	Acc variation.YieldAccum `json:"acc"`
}

// DieResult is one die's tuning outcome: a /v1/tune die-mode response body
// member and one NDJSON line of a /v1/yield stream.
type DieResult struct {
	// Die is the die index within a yield stream (0 for one-shot tunes).
	Die int `json:"die"`
	// Seed is the variation-model seed that sampled this die.
	Seed int64 `json:"seed"`
	// BetaActual is the die's true slowdown, BetaSensed the sensor's view.
	BetaActual float64 `json:"betaActual"`
	BetaSensed float64 `json:"betaSensed"`
	// Met reports whether the tuned die meets nominal timing.
	Met bool `json:"met"`
	// Reason explains a failed tuning.
	Reason string `json:"reason,omitempty"`
	// Iters counts allocation attempts.
	Iters         int     `json:"iters"`
	DcritBeforePS float64 `json:"dcritBeforePS"`
	DcritAfterPS  float64 `json:"dcritAfterPS"`
	LeakBeforeNW  float64 `json:"leakBeforeNW"`
	LeakAfterNW   float64 `json:"leakAfterNW"`
	// Solution is the applied clustering (absent when the die needed no
	// bias or no allocation succeeded).
	Solution *SolutionJSON `json:"solution,omitempty"`
}

// SolutionJSON is the wire form of a core.Solution.
type SolutionJSON struct {
	Method      string    `json:"method"`
	Clusters    int       `json:"clusters"`
	TotalLeakNW float64   `json:"totalLeakNW"`
	ExtraLeakNW float64   `json:"extraLeakNW"`
	VbsLevels   []float64 `json:"vbsLevels"`
	Assign      []int     `json:"assign"`
}

// YieldFooter is the terminal NDJSON line of a /v1/yield stream.
type YieldFooter struct {
	Stats *YieldStatsJSON `json:"stats"`
}

// YieldStatsJSON is the wire form of variation.YieldStats.
type YieldStatsJSON struct {
	Dies                 int     `json:"dies"`
	MetBefore            int     `json:"metBefore"`
	MetAfter             int     `json:"metAfter"`
	YieldBeforePct       float64 `json:"yieldBeforePct"`
	YieldAfterPct        float64 `json:"yieldAfterPct"`
	MeanBetaPct          float64 `json:"meanBetaPct"`
	WorstBetaPct         float64 `json:"worstBetaPct"`
	MeanLeakBeforeNW     float64 `json:"meanLeakBeforeNW"`
	MeanLeakAfterNW      float64 `json:"meanLeakAfterNW"`
	MeanLeakTunedOnlyNW  float64 `json:"meanLeakTunedOnlyNW"`
	TunedDies            int     `json:"tunedDies"`
	FailedCompensations  int     `json:"failedCompensations"`
	MeanTuneIters        float64 `json:"meanTuneIters"`
	MeanClustersPerTuned float64 `json:"meanClustersPerTuned"`
}

// Table1Request is the body of POST /v1/table1. Cells run sequentially
// within the request (cross-request parallelism comes from the worker
// pool), and the exact solves run under node budgets, so every column is
// byte-reproducible.
type Table1Request struct {
	// Benchmarks to run (default: all nine in paper order).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Betas to evaluate (default 5% and 10%).
	Betas []float64 `json:"betas,omitempty"`
	// ILPNodeLimit bounds each exact solve's branch-and-bound nodes
	// (default 50000); results are deterministic under it.
	ILPNodeLimit int `json:"ilpNodeLimit,omitempty"`
	// ILPGateLimit skips the ILP on larger designs (default 5000; use 1
	// to skip it everywhere).
	ILPGateLimit int `json:"ilpGateLimit,omitempty"`
	// Solver names the engine behind the non-ILP columns.
	Solver string `json:"solver,omitempty"`
}

// Table1Response is the body of a successful /v1/table1.
type Table1Response struct {
	Rows []repro.Table1Row `json:"rows"`
}

// CacheStats is a snapshot of the prefix cache's counters.
type CacheStats = memo.Stats

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Cache CacheStats `json:"cache"`
	// PrefixBuilds is the process-wide flow.Prefix construction count.
	PrefixBuilds int64 `json:"prefixBuilds"`
	// InFlight is the number of admitted requests currently executing.
	InFlight int64 `json:"inFlight"`
	// Shed counts requests rejected with 503 since start.
	Shed int64 `json:"shed"`
	// TuneMemoHits counts flow-mode /v1/tune requests answered from the
	// prefix's memo of encoded answers instead of computed.
	TuneMemoHits int64 `json:"tuneMemoHits"`
	// Workers and Queue echo the configured pool bounds.
	Workers int `json:"workers"`
	Queue   int `json:"queue"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status (and optional Retry-After) with a message.
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errSaturated / errDraining are the default shed responses; a Server with a
// configured RetryAfterSec builds its own via shedError.
var (
	errSaturated = &apiError{status: http.StatusServiceUnavailable, msg: "server saturated", retryAfter: 1}
	errDraining  = &apiError{status: http.StatusServiceUnavailable, msg: "server draining", retryAfter: 1}
)

// maxRequestBytes bounds request bodies: netlist uploads dominate, and the
// largest built-in design serializes well under this.
const maxRequestBytes = 16 << 20

// decodeJSON strictly decodes one JSON object from the request body.
// Unknown fields are rejected so that a typoed option fails loudly instead
// of silently running the defaults.
func decodeJSON(r io.Reader, v any) *apiError {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data after JSON object")
	}
	return nil
}

func (d *DesignRef) validate() *apiError {
	if d.Benchmark == "" && d.Netlist == "" {
		return badRequest("no design: set benchmark or netlist")
	}
	if d.Benchmark != "" && d.Netlist != "" {
		return badRequest("ambiguous design: set benchmark or netlist, not both")
	}
	if d.ForceRows < 0 || d.ForceRows > 4096 {
		return badRequest("forceRows %d out of range [0, 4096]", d.ForceRows)
	}
	return nil
}

// validateAlloc checks the allocation knobs shared by tune and yield.
func validateAlloc(beta float64, maxClusters, maxBiasPairs int) *apiError {
	if beta < 0 || beta > 1 {
		return badRequest("beta %g out of range [0, 1]", beta)
	}
	if maxClusters < 0 || maxClusters > 32 {
		return badRequest("maxClusters %d out of range [0, 32]", maxClusters)
	}
	if maxBiasPairs < 0 || maxBiasPairs > 32 {
		return badRequest("maxBiasPairs %d out of range [0, 32]", maxBiasPairs)
	}
	return nil
}

func (q *TuneRequest) validate() *apiError {
	if err := q.DesignRef.validate(); err != nil {
		return err
	}
	if err := validateAlloc(q.Beta, q.MaxClusters, q.MaxBiasPairs); err != nil {
		return err
	}
	if q.Die != nil {
		if err := q.Die.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (d *DieRequest) validate() *apiError {
	if d.GuardbandPct < 0 || d.GuardbandPct > 0.5 {
		return badRequest("die.guardbandPct %g out of range [0, 0.5]", d.GuardbandPct)
	}
	if d.MaxIters < 0 || d.MaxIters > 100 {
		return badRequest("die.maxIters %d out of range [0, 100]", d.MaxIters)
	}
	return nil
}

func (q *YieldRequest) validate(maxDies int) *apiError {
	if err := q.DesignRef.validate(); err != nil {
		return err
	}
	if q.Dies < 1 || q.Dies > maxDies {
		return badRequest("dies %d out of range [1, %d]", q.Dies, maxDies)
	}
	if err := validateAlloc(0, q.MaxClusters, q.MaxBiasPairs); err != nil {
		return err
	}
	if q.GuardbandPct < 0 || q.GuardbandPct > 0.5 {
		return badRequest("guardbandPct %g out of range [0, 0.5]", q.GuardbandPct)
	}
	if q.MaxIters < 0 || q.MaxIters > 100 {
		return badRequest("maxIters %d out of range [0, 100]", q.MaxIters)
	}
	if q.Workers < 0 || q.Workers > 256 {
		return badRequest("workers %d out of range [0, 256]", q.Workers)
	}
	if q.TargetCI < 0 || q.TargetCI > 0.5 {
		return badRequest("targetCI %g out of range [0, 0.5]", q.TargetCI)
	}
	if q.Checkpoint < 0 {
		return badRequest("checkpoint %d must be non-negative", q.Checkpoint)
	}
	if q.Resume != nil {
		if q.Resume.Ckpt < 1 || q.Resume.Ckpt > q.Dies {
			return badRequest("resume.ckpt %d out of range [1, %d]", q.Resume.Ckpt, q.Dies)
		}
		if q.Resume.Acc.Dies != q.Resume.Ckpt {
			return badRequest("resume.acc covers %d dies, resume.ckpt is %d", q.Resume.Acc.Dies, q.Resume.Ckpt)
		}
		if err := q.Resume.Acc.Validate(q.tuneOptions()); err != nil {
			return badRequest("resume.acc: %v", err)
		}
	}
	return nil
}

// tuneOptions returns the stream options the request asks for, less the
// solver and the solve cache. validate checks a resume prior against them,
// so the prior meets the same defaults the stream applies.
func (q *YieldRequest) tuneOptions() variation.TuneOptions {
	opts := variation.TuneOptions{
		GuardbandPct: q.GuardbandPct,
		MaxClusters:  q.MaxClusters,
		MaxBiasPairs: q.MaxBiasPairs,
		MaxIters:     q.MaxIters,
		Workers:      q.Workers,
		TargetCI:     q.TargetCI,
	}
	if opts.GuardbandPct == 0 {
		opts.GuardbandPct = defaultGuardbandPct
	}
	return opts
}

func (q *Table1Request) validate() *apiError {
	if len(q.Benchmarks) > 64 {
		return badRequest("too many benchmarks (%d > 64)", len(q.Benchmarks))
	}
	if len(q.Betas) > 16 {
		return badRequest("too many betas (%d > 16)", len(q.Betas))
	}
	for _, b := range q.Betas {
		if b <= 0 || b > 1 {
			return badRequest("beta %g out of range (0, 1]", b)
		}
	}
	if q.ILPNodeLimit < 0 || q.ILPNodeLimit > 10_000_000 {
		return badRequest("ilpNodeLimit %d out of range [0, 10000000]", q.ILPNodeLimit)
	}
	if q.ILPGateLimit < 0 {
		return badRequest("ilpGateLimit %d out of range [0, ∞)", q.ILPGateLimit)
	}
	return nil
}

// solutionJSON converts an applied solution, deriving the cluster voltages
// from the bias grid (ascending, mirroring core.Instance.VbsOf).
func solutionJSON(sol *core.Solution, grid tech.BiasGrid) *SolutionJSON {
	if sol == nil {
		return nil
	}
	maxLevel := 0
	for _, j := range sol.Assign {
		if j > maxLevel {
			maxLevel = j
		}
	}
	seen := make([]bool, maxLevel+1)
	for _, j := range sol.Assign {
		seen[j] = true
	}
	var vbs []float64
	for j, ok := range seen {
		if ok {
			vbs = append(vbs, grid.Voltage(j))
		}
	}
	return &SolutionJSON{
		Method:      sol.Method,
		Clusters:    sol.Clusters,
		TotalLeakNW: sol.TotalLeakNW,
		ExtraLeakNW: sol.ExtraLeakNW,
		VbsLevels:   vbs,
		Assign:      sol.Assign,
	}
}

// dieResult converts one tuning outcome to its wire form.
func dieResult(die int, seed int64, r *variation.TuneResult, grid tech.BiasGrid) *DieResult {
	return &DieResult{
		Die:           die,
		Seed:          seed,
		BetaActual:    r.BetaActual,
		BetaSensed:    r.BetaSensed,
		Met:           r.Met,
		Reason:        r.Reason,
		Iters:         r.Iters,
		DcritBeforePS: r.DcritBeforePS,
		DcritAfterPS:  r.DcritAfterPS,
		LeakBeforeNW:  r.LeakBeforeNW,
		LeakAfterNW:   r.LeakAfterNW,
		Solution:      solutionJSON(r.Solution, grid),
	}
}

// yieldStatsJSON converts the aggregate statistics to their wire form.
func yieldStatsJSON(st *variation.YieldStats) *YieldStatsJSON {
	before, after := st.YieldPct()
	return &YieldStatsJSON{
		Dies:                 st.Dies,
		MetBefore:            st.MetBefore,
		MetAfter:             st.MetAfter,
		YieldBeforePct:       before,
		YieldAfterPct:        after,
		MeanBetaPct:          st.MeanBetaPct,
		WorstBetaPct:         st.WorstBetaPct,
		MeanLeakBeforeNW:     st.MeanLeakBeforeNW,
		MeanLeakAfterNW:      st.MeanLeakAfterNW,
		MeanLeakTunedOnlyNW:  st.MeanLeakTunedOnlyNW,
		TunedDies:            st.TunedDies,
		FailedCompensations:  st.FailedCompensations,
		MeanTuneIters:        st.MeanTuneIters,
		MeanClustersPerTuned: st.MeanClustersPerTuned,
	}
}

// writeJSON writes one JSON value with a trailing newline (the exact bytes a
// json.Encoder produces; the differential tests reproduce them the same way).
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := encodeBody(v)
	writeBody(w, status, body)
}

// encodeBody encodes v as writeJSON writes it.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// writeBody writes an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError writes an apiError as a JSON error body.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, ErrorResponse{Error: e.msg})
}
