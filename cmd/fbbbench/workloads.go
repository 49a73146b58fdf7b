package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/tech"
	"repro/internal/variation"
)

// draw is a uniform 64-bit value fixed by (seed, id, salt): every input of
// operation id derives from it, so the same seed replays the same requests
// whatever order the clients send them in.
func draw(seed, id int64, salt uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id)*0xd1b54a32d192ed03 ^ salt*0x8cb92ba72f3d8dd7
	for i := 0; i < 2; i++ {
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// guardband is the serve layer's default sensor headroom, which requests
// that leave it unset get.
const guardband = 0.005

// tuneReq is one /v1/tune request of a workload.
type tuneReq struct {
	name string // design name: built-in benchmark or upload label
	src  string // built-in benchmark the design (or upload) comes from
	text string // uploaded netlist ("" = built-in)
	beta float64
	c    int
	die  int64 // die seed; used only when isDie
	// isDie selects post-silicon die tuning instead of design-time allocation.
	isDie bool
}

func (q tuneReq) body() serve.TuneRequest {
	r := serve.TuneRequest{Beta: q.beta, MaxClusters: q.c}
	if q.text != "" {
		r.DesignRef = serve.DesignRef{Netlist: q.text, Name: q.name}
	} else {
		r.DesignRef = serve.DesignRef{Benchmark: q.name}
	}
	if q.isDie {
		r.Beta = 0
		r.Die = &serve.DieRequest{Seed: q.die}
	}
	return r
}

// refKey identifies the reference answer of a tune request.
func (q tuneReq) refKey() string {
	if q.isDie {
		return fmt.Sprintf("%s/die%d/c%d", q.name, q.die, q.c)
	}
	return fmt.Sprintf("%s/b%g/c%d", q.name, q.beta, q.c)
}

var (
	tuneBetas    = []float64{0.02, 0.05, 0.08, 0.10}
	tuneClusters = []int{2, 3, 4}
)

// pickAlloc draws a design-time (beta, C) point.
func pickAlloc(seed, id int64) (float64, int) {
	return tuneBetas[draw(seed, id, 10)%uint64(len(tuneBetas))], tuneClusters[draw(seed, id, 11)%uint64(len(tuneClusters))]
}

// answers keeps the responses of a closed-loop workload by operation id.
type answers[T any] struct {
	mu sync.Mutex
	m  map[int64]T
}

func (a *answers[T]) put(id int64, v T) {
	a.mu.Lock()
	if a.m == nil {
		a.m = map[int64]T{}
	}
	a.m[id] = v
	a.mu.Unlock()
}

// prefixSource builds the reference prefix a request's answer is checked
// against: a private flow.Engine for built-ins, a private parse for
// uploads, so nothing is shared with the cluster under test.
type prefixSource struct {
	eng     *flow.Engine
	uploads map[string]*flow.Prefix
}

func newPrefixSource() *prefixSource {
	return &prefixSource{eng: flow.New(), uploads: map[string]*flow.Prefix{}}
}

func (p *prefixSource) get(q tuneReq) (*flow.Prefix, error) {
	if q.text == "" {
		return p.eng.Prefix(q.name, 0)
	}
	if pfx, ok := p.uploads[q.name]; ok {
		return pfx, nil
	}
	d, err := netlist.ParseBench(strings.NewReader(q.text), q.name, cell.Default())
	if err != nil {
		return nil, err
	}
	pfx, err := flow.PrefixFor(d, cell.Default(), 0)
	if err != nil {
		return nil, err
	}
	p.uploads[q.name] = pfx
	return pfx, nil
}

// wantTune computes the in-process answer to q: repro.RunWith for
// design-time requests, variation.TuneOn for die mode.
func wantTune(pfx *flow.Prefix, q tuneReq) (*serve.TuneResponse, error) {
	if !q.isDie {
		res, err := repro.RunWith(pfx, repro.Config{Beta: q.beta, MaxClusters: q.c, SkipLayout: true})
		if err != nil {
			return nil, err
		}
		return &serve.TuneResponse{Summary: res.Summarize()}, nil
	}
	proc := tech.Default45nm()
	tn := variation.NewTuner(variation.NewRetimer(pfx.Analyzer), pfx.Allocator)
	die := variation.Default().Sample(pfx.Placement, proc, q.die)
	tr, err := variation.TuneOn(tn, pfx.Timing, die, proc, variation.TuneOptions{GuardbandPct: guardband, MaxClusters: q.c})
	if err != nil {
		return nil, err
	}
	return &serve.TuneResponse{Die: wireDie(0, q.die, tr, pfx.Placement.Lib.Grid)}, nil
}

// digest is what a load keeps of an answer: the SHA-256 of its JSON
// encoding. Keeping every decoded response would grow the heap the Go
// collector scans as the run goes on, and charge that to the system.
type digest [sha256.Size]byte

func digestOf(v any) (digest, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return digest{}, err
	}
	return sha256.Sum256(b), nil
}

// checkTunes compares every answered request with its in-process
// reference, memoized per distinct request.
func checkTunes(got map[int64]digest, reqOf func(int64) tuneReq, corrupt bool) (int, error) {
	src := newPrefixSource()
	want := map[string]digest{}
	mism := 0
	for _, id := range sortedIDs(got) {
		q := reqOf(id)
		w, ok := want[q.refKey()]
		if !ok {
			pfx, err := src.get(q)
			if err != nil {
				return 0, err
			}
			ans, err := wantTune(pfx, q)
			if err != nil {
				return 0, err
			}
			if w, err = digestOf(ans); err != nil {
				return 0, err
			}
			if corrupt && len(want) == 0 {
				w[0]++
			}
			want[q.refKey()] = w
		}
		if got[id] != w {
			mism++
		}
	}
	return mism, nil
}

// tuneOp sends one tune request and keeps its answer's digest.
func tuneOp(b *bench, reqOf func(int64) tuneReq, got *answers[digest]) opFunc {
	return traced(b.tr, func(ctx context.Context, id int64) error {
		resp, err := b.cl.client.Tune(ctx, reqOf(id).body())
		if err != nil {
			return err
		}
		d, err := digestOf(resp)
		if err != nil {
			return err
		}
		got.put(id, d)
		return nil
	})
}

// ---- tune-open ----

// tuneRate is tune-open's offered load: about a third of what the cluster
// sustains in a closed loop on a 2-core host, so queues stay short and the
// latency tail measures the serving path, not a backlog.
const tuneRate = 1000

var tuneOpenDesigns = []string{"c1355", "c3540", "c5315", "c7552"}

// tuneOpen: an open loop of small tune requests through the router, two
// thirds design-time and one third die mode, over warm designs.
type tuneOpen struct {
	reqs []tuneReq
	got  answers[digest]
}

func newTuneOpen(cfg config) workload {
	n := int(tuneRate * cfg.seconds)
	w := &tuneOpen{reqs: make([]tuneReq, n)}
	for i := range w.reqs {
		w.reqs[i] = tuneOpenReq(cfg.seed, int64(i))
	}
	return w
}

func tuneOpenReq(seed, id int64) tuneReq {
	name := tuneOpenDesigns[draw(seed, id, 1)%uint64(len(tuneOpenDesigns))]
	q := tuneReq{name: name, src: name}
	if draw(seed, id, 2)%3 == 0 {
		q.isDie, q.c, q.die = true, 3, int64(draw(seed, id, 3)>>1)
		return q
	}
	q.beta, q.c = pickAlloc(seed, id)
	return q
}

func (w *tuneOpen) op() string        { return "tune request" }
func (w *tuneOpen) usesCluster() bool { return true }

func (w *tuneOpen) setup(ctx context.Context, b *bench) error {
	for _, name := range tuneOpenDesigns {
		q := tuneReq{name: name, beta: 0.05, c: 3}
		if _, err := b.cl.client.Tune(ctx, q.body()); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
	}
	return nil
}

func (w *tuneOpen) measure(ctx context.Context, b *bench, _ time.Time) *load {
	return openLoop(ctx, tuneRate, len(w.reqs), tuneOp(b, w.req, &w.got))
}

func (w *tuneOpen) req(id int64) tuneReq { return w.reqs[id] }

func (w *tuneOpen) check(b *bench) (int, error) {
	return checkTunes(w.got.m, w.req, b.cfg.corrupt)
}

func (w *tuneOpen) replay(b *bench, v values) (map[int64]time.Duration, error) {
	pfx, err := replayPrefixes(b.tr, v, tuneOpenDesigns)
	if err != nil {
		return nil, err
	}
	return replayTunes(b.tr, v, pfx, subsample(sortedIDs(w.got.m), 200), w.req)
}

// ---- cold-upload ----

var uploadDesigns = []string{"c1355", "c3540", "c5315"}

// Upload names: half the requests draw from a few hot names, half from
// many cold ones, 68 keys against the cluster's 3×8 prefix-cache slots.
const hotNames, coldNames = 4, 64

// coldUpload: a closed loop of design-time tunes on uploaded netlists, so
// both tiers parse and hash every request and cold names build and evict.
type coldUpload struct {
	cfg   config
	texts map[string]string
	got   answers[digest]
}

func newColdUpload(cfg config) workload {
	w := &coldUpload{cfg: cfg, texts: map[string]string{}}
	for _, name := range uploadDesigns {
		w.texts[name] = benchText(name)
	}
	return w
}

func (w *coldUpload) req(id int64) tuneReq {
	seed := w.cfg.seed
	var name string
	var k uint64
	if draw(seed, id, 1)%2 == 0 {
		k = draw(seed, id, 2) % hotNames
		name = fmt.Sprintf("hot%d", k)
	} else {
		k = draw(seed, id, 3) % coldNames
		name = fmt.Sprintf("cold%d", k)
	}
	src := uploadDesigns[k%uint64(len(uploadDesigns))]
	q := tuneReq{name: name, src: src, text: w.texts[src]}
	q.beta, q.c = pickAlloc(seed, id)
	return q
}

func (w *coldUpload) op() string        { return "upload tune request" }
func (w *coldUpload) usesCluster() bool { return true }

func (w *coldUpload) setup(ctx context.Context, b *bench) error {
	for k := 0; k < hotNames; k++ {
		src := uploadDesigns[k%len(uploadDesigns)]
		q := tuneReq{name: fmt.Sprintf("hot%d", k), text: w.texts[src], beta: 0.05, c: 3}
		if _, err := b.cl.client.Tune(ctx, q.body()); err != nil {
			return fmt.Errorf("warm %s: %w", q.name, err)
		}
	}
	return nil
}

func (w *coldUpload) measure(ctx context.Context, b *bench, until time.Time) *load {
	return closedLoop(ctx, b.nproc, until, tuneOp(b, w.req, &w.got))
}

func (w *coldUpload) check(b *bench) (int, error) {
	return checkTunes(w.got.m, w.req, b.cfg.corrupt)
}

func (w *coldUpload) replay(b *bench, v values) (map[int64]time.Duration, error) {
	pfx, err := replayPrefixes(b.tr, v, uploadDesigns)
	if err != nil {
		return nil, err
	}
	return replayTunes(b.tr, v, pfx, subsample(sortedIDs(w.got.m), 200), w.req)
}

// ---- yield-closed ----

const yieldDies = 64

var yieldDesigns = []string{"c5315", "c6288", "industrial1"}

// yieldClosed: callers that each wait for a whole 64-die yield study
// before asking for the next one.
type yieldClosed struct {
	cfg config
	// firstID is, per design, the first operation id that studies it; that
	// stream is kept whole and checked line by line.
	firstID map[string]int64
	kept    answers[*yieldAnswer]
	sent    answers[bool]
	short   atomic.Int64 // streams with a wrong die count
}

type yieldAnswer struct {
	req    serve.YieldRequest
	dies   []*serve.DieResult
	footer *serve.YieldStatsJSON
}

func newYieldClosed(cfg config) workload {
	w := &yieldClosed{cfg: cfg, firstID: map[string]int64{}}
	for id := int64(0); len(w.firstID) < len(yieldDesigns); id++ {
		name := w.req(id).Benchmark
		if _, ok := w.firstID[name]; !ok {
			w.firstID[name] = id
		}
	}
	return w
}

// req rotates through the designs in a fixed order, so every run studies
// them in equal shares; the die seeds are drawn.
func (w *yieldClosed) req(id int64) serve.YieldRequest {
	return serve.YieldRequest{
		DesignRef: serve.DesignRef{Benchmark: yieldDesigns[uint64(id)%uint64(len(yieldDesigns))]},
		Dies:      yieldDies,
		Seed:      int64(draw(w.cfg.seed, id, 2) >> 1),
		Workers:   1,
	}
}

func (w *yieldClosed) op() string        { return "64-die yield stream" }
func (w *yieldClosed) usesCluster() bool { return true }

func (w *yieldClosed) setup(ctx context.Context, b *bench) error {
	for _, name := range yieldDesigns {
		req := serve.YieldRequest{DesignRef: serve.DesignRef{Benchmark: name}, Dies: yieldDies, Workers: 1}
		if _, err := b.cl.client.Yield(ctx, req, nil); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
	}
	return nil
}

func (w *yieldClosed) measure(ctx context.Context, b *bench, until time.Time) *load {
	return closedLoop(ctx, b.nproc, until, traced(b.tr, func(ctx context.Context, id int64) error {
		req := w.req(id)
		keep := w.firstID[req.Benchmark] == id
		ans := &yieldAnswer{req: req}
		n := 0
		st, err := b.cl.client.Yield(ctx, req, func(d *serve.DieResult) error {
			n++
			if keep {
				ans.dies = append(ans.dies, d)
			}
			return nil
		})
		if err != nil {
			return err
		}
		w.sent.put(id, true)
		if n != yieldDies || st.Dies != yieldDies {
			w.short.Add(1)
		}
		if keep {
			ans.footer = st
			w.kept.put(id, ans)
		}
		return nil
	}))
}

func (w *yieldClosed) check(b *bench) (int, error) {
	mism := int(w.short.Load())
	src := newPrefixSource()
	for _, id := range sortedIDs(w.kept.m) {
		ans := w.kept.m[id]
		pfx, err := src.get(tuneReq{name: ans.req.Benchmark})
		if err != nil {
			return 0, err
		}
		var want [][]byte
		grid := pfx.Placement.Lib.Grid
		st, err := variation.YieldStream(context.Background(), pfx.Analyzer, pfx.Allocator, pfx.Timing,
			tech.Default45nm(), variation.Default(), ans.req.Dies, ans.req.Seed,
			variation.TuneOptions{GuardbandPct: guardband, Workers: 1},
			func(die int, r *variation.TuneResult) error {
				line, err := json.Marshal(wireDie(die, variation.DieSeed(ans.req.Seed, die), r, grid))
				want = append(want, line)
				return err
			})
		if err != nil {
			return 0, err
		}
		footer, err := json.Marshal(wireStats(st))
		if err != nil {
			return 0, err
		}
		if b.cfg.corrupt {
			footer = append(footer, '!')
		}
		got, err := json.Marshal(ans.footer)
		if err != nil {
			return 0, err
		}
		ok := bytes.Equal(got, footer) && len(ans.dies) == len(want)
		for i := 0; ok && i < len(want); i++ {
			g, err := json.Marshal(ans.dies[i])
			if err != nil {
				return 0, err
			}
			ok = bytes.Equal(g, want[i])
		}
		if !ok {
			mism++
		}
	}
	return mism, nil
}

func (w *yieldClosed) replay(b *bench, v values) (map[int64]time.Duration, error) {
	pfx, err := replayPrefixes(b.tr, v, yieldDesigns)
	if err != nil {
		return nil, err
	}
	return replayYield(b.tr, v, pfx, subsample(sortedIDs(w.sent.m), 50), w.req)
}

// ---- table1-batch ----

var (
	table1Designs = []string{"c1355", "c3540", "c5315", "c7552"}
	table1Betas   = []float64{0.02, 0.05}
)

// table1Batch: the paper-reproduction user, computing Table 1 cells
// in-process with the exact ILP at its default node budget, nproc cells at
// a time as repro.Runner does. Each cell runs on a fresh Runner, so no
// prefix or solve carries between cells. The grid is fixed work; the seed
// only shuffles the order of the cells within each pass over it.
type table1Batch struct {
	cfg  config
	rows answers[repro.Table1Row]
}

func newTable1Batch(cfg config) workload { return &table1Batch{cfg: cfg} }

func (w *table1Batch) op() string        { return "Table 1 cell" }
func (w *table1Batch) usesCluster() bool { return false }

// cell is the (benchmark, beta) cell operation id computes: consecutive
// passes over the grid, each in its own seeded order.
func (w *table1Batch) cell(id int64) (string, float64) {
	n := int64(len(table1Designs) * len(table1Betas))
	pass, k := id/n, id%n
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int64(draw(w.cfg.seed, pass, uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	c := order[k]
	return table1Designs[c/int64(len(table1Betas))], table1Betas[c%int64(len(table1Betas))]
}

// setup is what a fresh Runner pays before its first cell: generating,
// placing and timing every design of the grid.
func (w *table1Batch) setup(_ context.Context, b *bench) error {
	eng := repro.NewRunner(b.nproc).Engine()
	for _, name := range table1Designs {
		if _, err := eng.Prefix(name, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *table1Batch) measure(ctx context.Context, b *bench, until time.Time) *load {
	return closedLoop(ctx, b.nproc, until, func(ctx context.Context, id int64) error {
		name, beta := w.cell(id)
		rows, err := repro.NewRunner(1).WithContext(ctx).Table1(repro.Table1Options{
			Benchmarks: []string{name},
			Betas:      []float64{beta},
		})
		if err != nil {
			return err
		}
		w.rows.put(id, rows[0])
		return nil
	})
}

// check holds every cell to its first computation, and that one to a
// proven optimum at both cluster counts.
func (w *table1Batch) check(b *bench) (int, error) {
	want := map[string][]byte{}
	mism := 0
	for _, id := range sortedIDs(w.rows.m) {
		r := w.rows.m[id]
		got, err := json.Marshal(r)
		if err != nil {
			return 0, err
		}
		key := fmt.Sprintf("%s/%g", r.Benchmark, r.BetaPct)
		ref, ok := want[key]
		if !ok {
			if r.Err != "" || !r.ILPValidC2 || !r.ILPValidC3 || !r.ILPProvenC2 || !r.ILPProvenC3 {
				mism++
			}
			ref = got
			if b.cfg.corrupt && len(want) == 0 {
				ref = append(bytes.Clone(got), '!')
			}
			want[key] = ref
		}
		if !bytes.Equal(got, ref) {
			mism++
		}
	}
	return mism, nil
}

func (w *table1Batch) replay(b *bench, v values) (map[int64]time.Duration, error) {
	pfx, err := replayPrefixes(b.tr, v, table1Designs)
	if err != nil {
		return nil, err
	}
	return nil, replayCells(b.tr, v, pfx, b.nproc)
}

// ---- shared helpers ----

// benchText is the .bench netlist of a built-in design, the upload body
// of cold-upload.
func benchText(name string) string {
	d, err := gen.Build(name, cell.Default())
	if err != nil {
		panic(err) // the design names are constants of this file
	}
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, d); err != nil {
		panic(err)
	}
	return sb.String()
}

func sortedIDs[T any](m map[int64]T) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// subsample keeps at most n evenly spaced ids.
func subsample(ids []int64, n int) []int64 {
	if len(ids) <= n {
		return ids
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = ids[i*len(ids)/n]
	}
	return out
}

// wireDie, wireSolution and wireStats build the serve layer's wire types
// from library results, the way fbbd does, for byte comparison.
func wireDie(die int, seed int64, r *variation.TuneResult, grid tech.BiasGrid) *serve.DieResult {
	return &serve.DieResult{
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
		Solution:      wireSolution(r.Solution, grid),
	}
}

func wireSolution(sol *core.Solution, grid tech.BiasGrid) *serve.SolutionJSON {
	if sol == nil {
		return nil
	}
	maxLevel := 0
	for _, j := range sol.Assign {
		maxLevel = max(maxLevel, j)
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
	return &serve.SolutionJSON{
		Method:      sol.Method,
		Clusters:    sol.Clusters,
		TotalLeakNW: sol.TotalLeakNW,
		ExtraLeakNW: sol.ExtraLeakNW,
		VbsLevels:   vbs,
		Assign:      sol.Assign,
	}
}

func wireStats(st *variation.YieldStats) *serve.YieldStatsJSON {
	before, after := st.YieldPct()
	return &serve.YieldStatsJSON{
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
