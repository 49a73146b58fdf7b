// Package serve implements fbbd, the FBB-tuning HTTP service: the full
// reproduction flow (netlist -> place -> STA -> allocate -> tune -> yield)
// behind three JSON endpoints, built for heavy concurrent traffic.
//
//	POST /v1/tune    one design-time allocation (repro.Summary) or one
//	                 post-silicon die tuning (DieResult)
//	POST /v1/yield   a Monte-Carlo yield study streamed as NDJSON with
//	                 bounded memory: one DieResult line per die, then a
//	                 YieldFooter with the aggregate statistics
//	POST /v1/table1  the paper's Table 1 grid as JSON rows
//	GET  /v1/stats   cache and admission counters
//	GET  /v1/benchmarks  the built-in design names
//	GET  /healthz    liveness (and drain state)
//
// Two mechanisms make the service cheap under load. First, the expensive,
// deterministic front of every request — generation/parse, placement,
// nominal STA, allocator construction — is a flow.Prefix held in a
// netlist-hash-keyed LRU with singleflight coalescing (PrefixCache): N
// identical concurrent requests build it once and share it, which is safe
// because a Prefix is immutable; each prefix also memoizes its encoded
// design-time answers (flow.Prefix.Answers), so a repeated flow-mode tune
// is one lookup. Second, a bounded admission pool sheds
// load instead of queueing it unboundedly: past Workers in-flight requests
// and Queue waiters, requests are rejected with 503 and a Retry-After
// header, and a draining server rejects everything new while in-flight
// requests finish.
package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"encoding/json"

	"repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
	"repro/internal/variation"
)

// servedProc and servedModel are the technology and variability models
// every die tune and yield stream runs on; both are read-only. They are
// built once because tech.Default45nm calibrates a new Process per call.
var (
	servedProc  = tech.Default45nm()
	servedModel = variation.Default()
)

// Options configure a Server. The zero value is usable: every field has a
// production default.
type Options struct {
	// CacheSize bounds the prefix LRU (default 8 placements).
	CacheSize int
	// Workers bounds concurrently executing requests (default one per
	// CPU). Per-request die-tuning parallelism inside /v1/yield is
	// separate and client-controlled.
	Workers int
	// Queue bounds requests waiting for a worker before new arrivals are
	// shed with 503 (0 = default 2*Workers; negative = no queue, shed as
	// soon as every worker is busy).
	Queue int
	// MaxDies caps one /v1/yield request (default 1_000_000).
	MaxDies int
	// MaxGates caps accepted designs (default 100_000 gates).
	MaxGates int
	// RetryAfterSec is the Retry-After advertised on shed (503)
	// responses, in seconds (default 1). Retrying clients honor it as a
	// floor on their backoff, so a saturated deployment can push its
	// herd further out by raising it.
	RetryAfterSec int
	// OnPrefixBuild, when non-nil, is called once per prefix actually
	// built — the conformance tests assert coalescing with it.
	OnPrefixBuild func(key string)
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 8
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue == 0 {
		o.Queue = 2 * o.Workers
	} else if o.Queue < 0 {
		o.Queue = 0
	}
	if o.MaxDies <= 0 {
		o.MaxDies = 1_000_000
	}
	if o.MaxGates <= 0 {
		o.MaxGates = defaultMaxGates
	}
	if o.RetryAfterSec <= 0 {
		o.RetryAfterSec = 1
	}
	return o
}

// Server is the fbbd request handler. Construct with New; safe for
// concurrent use.
type Server struct {
	opts  Options
	cache *PrefixCache
	// designs memoizes the built-in benchmark designs. keys resolves
	// design keys once per distinct design; of an upload it keeps the
	// digest, key and gate count, never the text or design, so a prefix
	// miss parses the upload again.
	designs flow.Cache[*netlist.Design]
	keys    *designResolver

	workSem  chan struct{} // executing requests, cap Workers
	queueSem chan struct{} // waiting requests, cap Queue
	drainCh  chan struct{}
	// drainMu makes the admission-side draining check and wg.Add atomic
	// against BeginDrain, so Drain can never observe a zero WaitGroup
	// while an admitted request is still between the check and its Add.
	drainMu  sync.RWMutex
	draining bool
	wg       sync.WaitGroup
	inFlight atomic.Int64
	shed     atomic.Int64
	// tuneMemoHits counts flow-mode tunes answered from a prefix's
	// Answers memo.
	tuneMemoHits atomic.Int64

	mux *http.ServeMux
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		cache:    NewPrefixCache(opts.CacheSize, opts.OnPrefixBuild),
		workSem:  make(chan struct{}, opts.Workers),
		queueSem: make(chan struct{}, opts.Queue),
		drainCh:  make(chan struct{}),
		mux:      http.NewServeMux(),
	}
	// The name is checked before the designs cache is touched (resolve
	// does it): flow.Cache retains failed computations forever.
	s.keys = &designResolver{lib: cell.Default(), builtin: func(name string) (*netlist.Design, error) {
		return s.designs.Do(name, func() (*netlist.Design, error) {
			return gen.Build(name, cell.Default())
		})
	}}
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("POST /v1/yield", s.handleYield)
	s.mux.HandleFunc("POST /v1/table1", s.handleTable1)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// shedError builds a 503 with this server's configured Retry-After.
func (s *Server) shedError(msg string) *apiError {
	return &apiError{status: http.StatusServiceUnavailable, msg: msg, retryAfter: s.opts.RetryAfterSec}
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain puts the server into drain: every subsequent request is
// rejected with 503 while in-flight requests run to completion. Idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.drainMu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Drain initiates drain and blocks until every in-flight request has
// finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit applies backpressure: it returns a release func when the request
// won a worker slot, or writes a 503 (saturated/draining) and returns
// ok=false. A request finding all workers busy waits in the bounded queue;
// a request finding the queue full too is shed immediately — the
// fast-fail contract that keeps latency bounded when overloaded.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	// Register with the drain WaitGroup atomically against BeginDrain:
	// from here every exit path must balance the Add, and Drain is
	// guaranteed to wait out this request — admitted, queued, or shed.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.shed.Add(1)
		writeError(w, s.shedError("server draining"))
		return nil, false
	}
	s.wg.Add(1)
	s.drainMu.RUnlock()

	acquired := func() (func(), bool) {
		s.inFlight.Add(1)
		return func() {
			<-s.workSem
			s.inFlight.Add(-1)
			s.wg.Done()
		}, true
	}
	select {
	case s.workSem <- struct{}{}:
		return acquired()
	default:
	}
	select {
	case s.queueSem <- struct{}{}:
	default:
		s.wg.Done()
		s.shed.Add(1)
		writeError(w, s.shedError("server saturated"))
		return nil, false
	}
	defer func() { <-s.queueSem }()
	select {
	case s.workSem <- struct{}{}:
		return acquired()
	case <-s.drainCh:
		s.wg.Done()
		s.shed.Add(1)
		writeError(w, s.shedError("server draining"))
		return nil, false
	case <-r.Context().Done():
		// Client gave up while queued; nothing to write.
		s.wg.Done()
		return nil, false
	}
}

// prefixErr resolves a DesignRef to its cached flow.Prefix, building and
// inserting it (coalesced) on miss, and enforcing the MaxGates admission
// cap on every path. A memoized upload is parsed only on a prefix miss.
// Errors are raw — the table1 handler annotates them onto rows exactly as
// the in-process driver would.
func (s *Server) prefixErr(ctx context.Context, ref *DesignRef) (*flow.Prefix, error) {
	info, d, err := s.keys.resolve(ref, s.opts.MaxGates)
	if err != nil {
		return nil, err
	}
	return s.cache.Get(ctx, info.key, func() (*flow.Prefix, error) {
		if d == nil {
			if d, err = s.keys.design(ref); err != nil {
				return nil, err
			}
		}
		return flow.PrefixFor(d, cell.Default(), ref.ForceRows)
	})
}

// prefix is prefixErr with HTTP error mapping: anything wrong with the
// requested design is the client's 400; a cancelled wait surfaces as 503.
func (s *Server) prefix(ctx context.Context, ref *DesignRef) (*flow.Prefix, *apiError) {
	pfx, err := s.prefixErr(ctx, ref)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, &apiError{status: http.StatusServiceUnavailable, msg: err.Error(), retryAfter: 1}
		}
		return nil, badRequest("%v", err)
	}
	return pfx, nil
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var req TuneRequest
	if e := decodeJSON(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); e != nil {
		writeError(w, e)
		return
	}
	if e := req.validate(); e != nil {
		writeError(w, e)
		return
	}
	// Validate the solver name up front: a typo is the client's 400, not
	// a failed flow.
	solver, err := core.ParseSolver(req.Solver, 0)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	pfx, e := s.prefix(r.Context(), &req.DesignRef)
	if e != nil {
		writeError(w, e)
		return
	}

	if req.Die == nil {
		// A design-time answer is a pure function of the prefix and the
		// point, and its response holds no clock reading, so the bytes a
		// first request encoded are the answer to every repeat.
		pt := flow.Point{Beta: req.Beta, MaxClusters: req.MaxClusters, MaxBiasPairs: req.MaxBiasPairs, Solver: req.Solver}
		if body, ok := pfx.Answers.Load(pt); ok {
			s.tuneMemoHits.Add(1)
			writeBody(w, http.StatusOK, body)
			return
		}
		res, err := repro.RunWith(pfx, repro.Config{
			Beta:         req.Beta,
			MaxClusters:  req.MaxClusters,
			MaxBiasPairs: req.MaxBiasPairs,
			Solver:       req.Solver,
			SkipLayout:   true,
		})
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, core.ErrBeyondRange) {
				// Deterministic: a retry gets the same answer.
				status = http.StatusUnprocessableEntity
			}
			writeError(w, &apiError{status: status, msg: err.Error()})
			return
		}
		body, err := encodeBody(TuneResponse{Summary: res.Summarize(), ILP: ilpDiag(res)})
		if err == nil {
			pfx.Answers.Store(pt, body)
		}
		writeBody(w, http.StatusOK, body)
		return
	}

	opts := variation.TuneOptions{
		GuardbandPct: req.Die.GuardbandPct,
		MaxClusters:  req.MaxClusters,
		MaxBiasPairs: req.MaxBiasPairs,
		MaxIters:     req.Die.MaxIters,
		Solver:       solver,
		SolveCache:   pfx.Solves,
	}
	if opts.GuardbandPct == 0 {
		opts.GuardbandPct = defaultGuardbandPct
	}
	tn := variation.NewTuner(variation.NewRetimer(pfx.Analyzer), pfx.Allocator)
	die := servedModel.Sample(pfx.Placement, servedProc, req.Die.Seed)
	tr, err := variation.TuneOn(tn, pfx.Timing, die, servedProc, opts)
	if err != nil {
		writeError(w, &apiError{status: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, TuneResponse{Die: dieResult(0, req.Die.Seed, tr, pfx.Placement.Lib.Grid)})
}

// defaultGuardbandPct matches the repro Yield driver's sensor headroom.
const defaultGuardbandPct = 0.005

func (s *Server) handleYield(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var req YieldRequest
	if e := decodeJSON(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); e != nil {
		writeError(w, e)
		return
	}
	if e := req.validate(s.opts.MaxDies); e != nil {
		writeError(w, e)
		return
	}
	solver, err := core.ParseSolver(req.Solver, 0)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	pfx, e := s.prefix(r.Context(), &req.DesignRef)
	if e != nil {
		writeError(w, e)
		return
	}

	opts := req.tuneOptions()
	opts.Solver = solver
	opts.SolveCache = pfx.Solves

	// Stream: one DieResult line per die in die order, then the stats
	// footer. Memory stays bounded — variation.YieldStream hands each
	// result over as it is sequenced and never accumulates the stream,
	// and this handler writes it straight to the wire. The per-die work
	// under it is the vectorized pipeline: buffer-reusing sampling,
	// Dcrit-only light re-times and precomputed-table leakage over the
	// cached prefix's analyzer and allocator.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	grid := pfx.Placement.Lib.Grid

	// Checkpoint/resume ride the variation layer's accumulator: a resumed
	// request starts at the checkpoint's die with its exact float state, so
	// the suffix it streams — die lines, later checkpoints, footer — is
	// byte-identical to the tail of the unbroken stream.
	sopts := variation.StreamOptions{}
	if req.Resume != nil {
		acc := req.Resume.Acc
		sopts.StartDie = req.Resume.Ckpt
		sopts.Prior = &acc
	}
	if req.Checkpoint > 0 {
		sopts.CheckpointEvery = req.Checkpoint
		sopts.OnCheckpoint = func(die int, acc variation.YieldAccum) error {
			if err := enc.Encode(YieldCheckpoint{Ckpt: die, Acc: acc}); err != nil {
				return err
			}
			return rc.Flush()
		}
	}
	stats, err := variation.YieldStreamResumable(r.Context(),
		pfx.Analyzer, pfx.Allocator, pfx.Timing,
		servedProc, servedModel, req.Dies, req.Seed, opts, sopts,
		func(die int, tr *variation.TuneResult) error {
			if err := enc.Encode(dieResult(die, variation.DieSeed(req.Seed, die), tr, grid)); err != nil {
				return err
			}
			return rc.Flush()
		})
	if err != nil {
		// The status line is long gone; a terminal error object is the
		// NDJSON contract for mid-stream failure.
		_ = enc.Encode(ErrorResponse{Error: err.Error()})
		return
	}
	_ = enc.Encode(YieldFooter{Stats: yieldStatsJSON(stats)})
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var req Table1Request
	if e := decodeJSON(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); e != nil {
		writeError(w, e)
		return
	}
	if e := req.validate(); e != nil {
		writeError(w, e)
		return
	}
	if _, err := core.ParseSolver(req.Solver, 0); err != nil {
		writeError(w, badRequest("%v", err))
		return
	}

	opts := repro.Table1Options{
		Benchmarks:   req.Benchmarks,
		Betas:        req.Betas,
		ILPNodeLimit: req.ILPNodeLimit,
		ILPGateLimit: req.ILPGateLimit,
		Solver:       req.Solver,
	}
	benchmarks, betas := opts.Grid()

	// Cells run sequentially in grid order: deterministic rows, and the
	// request occupies exactly the one worker slot it was admitted for.
	rows := make([]repro.Table1Row, 0, len(benchmarks)*len(betas))
	for _, name := range benchmarks {
		for _, beta := range betas {
			if err := r.Context().Err(); err != nil {
				return // client gone; no one left to answer
			}
			ref := DesignRef{Benchmark: name}
			pfx, err := s.prefixErr(r.Context(), &ref)
			if err != nil {
				rows = append(rows, repro.Table1Row{
					Benchmark: name, BetaPct: beta * 100, Err: err.Error(),
				})
				continue
			}
			rows = append(rows, repro.Table1CellOn(pfx, name, beta, opts))
		}
	}
	writeJSON(w, http.StatusOK, Table1Response{Rows: rows})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Cache:        s.cache.Stats(),
		PrefixBuilds: flow.PrefixBuilds(),
		InFlight:     s.inFlight.Load(),
		Shed:         s.shed.Load(),
		TuneMemoHits: s.tuneMemoHits.Load(),
		Workers:      cap(s.workSem),
		Queue:        cap(s.queueSem),
	})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Benchmarks []string `json:"benchmarks"`
	}{repro.Benchmarks()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", s.Draining()})
}
