package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
)

// The replays of a traced run call each layer's public functions directly,
// from outside the program, on a subsample of the run's own inputs. Every
// call gets a span; spans of a replayed request carry the request's id, so
// they line up with its HTTP spans. Replays build their own prefixes and
// never touch the cluster.

// prefixReps is how often each design's prefix build is replayed; the
// per-stage median is kept.
const prefixReps = 3

// replayPrefixes replays the flow prefix of every distinct design stage by
// stage and returns one built prefix per design.
func replayPrefixes(tr *tracer, v values, names []string) (map[string]*flow.Prefix, error) {
	lib := cell.Default()
	out := map[string]*flow.Prefix{}
	sums := map[string]float64{}
	for di, name := range names {
		req := int64(-1 - di)
		text := benchText(name)
		per := map[string][]time.Duration{}
		step := func(metric, call string, f func() error) error {
			var err error
			per[metric] = append(per[metric], tr.timed(call, req, func() { err = f() }))
			if err != nil {
				return fmt.Errorf("%s %s: %w", call, name, err)
			}
			return nil
		}
		for r := 0; r < prefixReps; r++ {
			var (
				d   *netlist.Design
				pl  *place.Placement
				an  *sta.Analyzer
				tm  *sta.Timing
				pfx *flow.Prefix
			)
			steps := []struct {
				metric, call string
				f            func() error
			}{
				{"gen.build_ms", "gen.Build", func() (err error) { _, err = gen.Build(name, lib); return }},
				{"netlist.parse_ms", "netlist.ParseBench", func() (err error) {
					d, err = netlist.ParseBench(strings.NewReader(text), name, lib)
					return
				}},
				{"serve.designkey_ms", "serve.DesignKey", func() error { serve.DesignKey(d, 0); return nil }},
				{"place.place_ms", "place.Place", func() (err error) { pl, err = place.Place(d, lib, place.Options{}); return }},
				{"sta.analyzer_new_ms", "sta.NewAnalyzer", func() (err error) { an, err = sta.NewAnalyzer(pl, sta.Options{}); return }},
				{"sta.nominal_run_ms", "sta.Analyzer.Run", func() (err error) { tm, err = an.Run(nil, nil); return }},
				{"core.allocator_new_ms", "core.NewAllocator", func() (err error) { _, err = core.NewAllocator(pl, tm); return }},
				{"flow.prefix_ms", "flow.PrefixFor", func() (err error) { pfx, err = flow.PrefixFor(d, lib, 0); return }},
			}
			for _, s := range steps {
				if err := step(s.metric, s.call, s.f); err != nil {
					return nil, err
				}
			}
			out[name] = pfx
		}
		for metric, ds := range per {
			sums[metric] += msf(medianDur(ds))
		}
	}
	for metric, s := range sums {
		v[metric] = s / float64(len(names))
	}
	return out, nil
}

// replayTunes replays tune requests: design-time ones through
// repro.RunWith and, separately, core.Allocator.At and Instance.Solve;
// die-mode ones through Model.Sample and variation.TuneOn, as fbbd runs
// them. It returns each request's compute time for the handler residual.
func replayTunes(tr *tracer, v values, pfx map[string]*flow.Prefix, ids []int64, reqOf func(int64) tuneReq) (map[int64]time.Duration, error) {
	proc := tech.Default45nm()
	model := variation.Default()
	var runWith, at, solve, sample, tuneOn []time.Duration
	var dies, tuned, iters int
	compute := map[int64]time.Duration{}
	for _, id := range ids {
		q := reqOf(id)
		p := pfx[q.src]
		var err error
		if !q.isDie {
			d := tr.timed("repro.RunWith", id, func() {
				_, err = repro.RunWith(p, repro.Config{Beta: q.beta, MaxClusters: q.c, SkipLayout: true})
			})
			if err != nil {
				return nil, err
			}
			runWith = append(runWith, d)
			compute[id] = d
			var inst *core.Instance
			at = append(at, tr.timed("core.Allocator.At", id, func() {
				inst, err = p.Allocator.At(core.Options{Beta: q.beta, MaxClusters: q.c}, nil)
			}))
			if err != nil {
				return nil, err
			}
			solve = append(solve, tr.timed("core.Instance.Solve", id, func() { _, err = inst.Solve(nil) }))
			if err != nil {
				return nil, err
			}
			continue
		}
		var die *variation.Die
		ds := tr.timed("variation.Model.Sample", id, func() { die = model.Sample(p.Placement, proc, q.die) })
		var r *variation.TuneResult
		dt := tr.timed("variation.TuneOn", id, func() {
			tn := variation.NewTuner(variation.NewRetimer(p.Analyzer), p.Allocator)
			r, err = variation.TuneOn(tn, p.Timing, die, proc,
				variation.TuneOptions{GuardbandPct: guardband, MaxClusters: q.c, SolveCache: p.Solves})
		})
		if err != nil {
			return nil, err
		}
		sample = append(sample, ds)
		tuneOn = append(tuneOn, dt)
		compute[id] = ds + dt
		dies++
		if r.Solution != nil {
			tuned++
			iters += r.Iters
		}
	}
	v["repro.runwith_p50_ms"] = msf(quantile(runWith, 0.5))
	v["core.at_p50_ms"] = msf(quantile(at, 0.5))
	v["core.solve_p50_ms"] = msf(quantile(solve, 0.5))
	v["variation.sample_p50_ms"] = msf(quantile(sample, 0.5))
	v["variation.tuneon_p50_ms"] = msf(quantile(tuneOn, 0.5))
	if dies > 0 {
		v["variation.tuned_ratio"] = float64(tuned) / float64(dies)
	}
	if tuned > 0 {
		v["variation.iters_mean"] = float64(iters) / float64(tuned)
	}
	v["core.solvecache_entries"] = float64(solveCacheEntries(pfx))
	return compute, nil
}

// yieldBatch is the yield kernel's default die-batch width, which the
// stage replay mirrors.
const yieldBatch = 16

// replayYield replays yield streams: whole through variation.YieldStream,
// and stage by stage through the kernels the stream runs — block sampling,
// batched light STA, fused leakage on the lanes that need no bias, and
// TuneOn (less its head re-timing, which the batch already did) on the
// rest. The stages should account for the stream; yield.residual_ratio is
// what they leave unexplained.
//
// Both replays mutate a prefix's shared solve cache — a die whose target
// misses it pays a materialization — so each gets its own prefix, warmed
// the same way, and sees the same sequence of misses.
func replayYield(tr *tracer, v values, pfx map[string]*flow.Prefix, ids []int64, reqOf func(int64) serve.YieldRequest) (map[int64]time.Duration, error) {
	proc := tech.Default45nm()
	model := variation.Default()
	mon := variation.InSituMonitor{ResolutionPct: 0.01}
	stagePfx := map[string]*flow.Prefix{}
	compute := map[int64]time.Duration{}
	var total, sample, light, leak, tail, enc time.Duration
	var dies, tailDies, tuned int
	var iters float64
	for _, id := range ids {
		req := reqOf(id)
		p := pfx[req.Benchmark]
		ps := stagePfx[req.Benchmark]
		if ps == nil {
			var err error
			if ps, err = flow.PrefixFor(p.Design, cell.Default(), 0); err != nil {
				return nil, err
			}
			stagePfx[req.Benchmark] = ps
			// Warm both caches as the cluster's set-up warmed its own:
			// one untimed stream each.
			for _, q := range []*flow.Prefix{p, ps} {
				wopts := variation.TuneOptions{GuardbandPct: guardband, Workers: 1, SolveCache: q.Solves}
				if _, err := variation.YieldStream(context.Background(), q.Analyzer, q.Allocator, q.Timing, proc, model,
					yieldDies, 0, wopts, nil); err != nil {
					return nil, err
				}
			}
		}
		opts := variation.TuneOptions{GuardbandPct: guardband, Workers: 1, SolveCache: p.Solves}

		var results []*variation.TuneResult
		var st *variation.YieldStats
		var err error
		d := tr.timed("variation.YieldStream", id, func() {
			st, err = variation.YieldStream(context.Background(), p.Analyzer, p.Allocator, p.Timing, proc, model,
				req.Dies, req.Seed, opts, func(_ int, r *variation.TuneResult) error {
					results = append(results, r)
					return nil
				})
		})
		if err != nil {
			return nil, err
		}
		total += d
		compute[id] = d
		dies += st.Dies
		tuned += st.TunedDies
		iters += st.MeanTuneIters * float64(st.TunedDies)
		grid := p.Placement.Lib.Grid
		enc += tr.timed("json.Encoder.Encode", id, func() {
			e := json.NewEncoder(io.Discard)
			for i, r := range results {
				if err = e.Encode(wireDie(i, variation.DieSeed(req.Seed, i), r, grid)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}

		// Like YieldStream, the stages start each stream on fresh worker
		// state: sampler, leakage model and tuner.
		sopts := variation.TuneOptions{GuardbandPct: guardband, Workers: 1, SolveCache: ps.Solves}
		tn := variation.NewTuner(variation.NewRetimer(ps.Analyzer), ps.Allocator)
		smp := variation.NewSampler(ps.Placement, proc, model)
		lm := variation.NewLeakModel(ps.Placement, proc)
		limit := ps.Timing.DcritPS * (1 + 0.001) // TuneOptions' default SlackTolPct
		var blk *variation.DieBlock
		var tb *sta.TimingBatch
		var fast []int
		var out []float64
		seeds := make([]int64, 0, yieldBatch)
		for base := 0; base < req.Dies; base += yieldBatch {
			cnt := min(yieldBatch, req.Dies-base)
			seeds = seeds[:0]
			for i := 0; i < cnt; i++ {
				seeds = append(seeds, variation.DieSeed(req.Seed, base+i))
			}
			sample += tr.timed("variation.Sampler.SampleBlockInto", id, func() { blk = smp.SampleBlockInto(blk, seeds) })
			light += tr.timed("sta.Analyzer.RunLightBatch", id, func() { tb, err = ps.Analyzer.RunLightBatch(blk.DelayScale, cnt, tb) })
			if err != nil {
				return nil, err
			}
			fast = fast[:0]
			var slow []int
			for d := 0; d < cnt; d++ {
				dc := tb.DcritPS[d]
				sensed := mon.MeasureBeta(ps.Timing, &sta.Timing{DcritPS: dc}, seeds[d])
				if dc <= limit && sensed+guardband <= 0 {
					fast = append(fast, d)
				} else {
					slow = append(slow, d)
				}
			}
			leak += tr.timed("variation.LeakModel.LeakageBlockNW", id, func() { out = lm.LeakageBlockNW(blk, fast, out[:0]) })
			for _, d := range slow {
				die := blk.Die(d)
				head := tr.timed("variation.Retimer.TimeLight", id, func() { _, err = tn.Retimer().TimeLight(die) })
				if err != nil {
					return nil, err
				}
				whole := tr.timed("variation.TuneOn", id, func() { _, err = variation.TuneOn(tn, ps.Timing, die, proc, sopts) })
				if err != nil {
					return nil, err
				}
				tail += whole - head
				tailDies++
			}
		}
	}
	if dies == 0 {
		return compute, nil
	}
	perDie := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(dies) }
	v["variation.yieldstream_us_per_die"] = perDie(total)
	v["variation.sample_block_us_per_die"] = perDie(sample)
	v["sta.light_batch_us_per_die"] = perDie(light)
	v["variation.leak_block_us_per_die"] = perDie(leak)
	v["fbbd.encode_us_per_die"] = perDie(enc)
	if tailDies > 0 {
		v["variation.tail_us_per_tuned_die"] = float64(tail) / float64(time.Microsecond) / float64(tailDies)
	}
	v["variation.tuned_ratio"] = float64(tuned) / float64(dies)
	if tuned > 0 {
		v["variation.iters_mean"] = iters / float64(tuned)
	}
	v["yield.residual_ratio"] = 1 - float64(sample+light+leak+tail)/float64(total)
	v["core.solvecache_entries"] = float64(solveCacheEntries(pfx))
	return compute, nil
}

// replayCells replays every Table 1 cell once the way repro.Table1CellOn
// computes it: per C in {2, 3}, repro.RunWith for the heuristic columns,
// then the exact ILP warm-started from it at the default node budget.
// repro.straggler_ratio compares the slowest cell with a pass's ideal wall
// time on workers cores: above 1, that one cell sets the pass's length.
func replayCells(tr *tracer, v values, pfx map[string]*flow.Prefix, workers int) error {
	var heur, solve, slowest, all time.Duration
	var nodes, solves, cells int
	for i, name := range table1Designs {
		for _, beta := range table1Betas {
			req := int64(-100 - i)
			var cellTime time.Duration
			for _, c := range []int{2, 3} {
				var res *repro.Result
				var err error
				d := tr.timed("repro.RunWith", req, func() {
					res, err = repro.RunWith(pfx[name], repro.Config{Beta: beta, MaxClusters: c, SkipLayout: true})
				})
				if err != nil {
					return err
				}
				heur += d
				cellTime += d
				var n int
				d = tr.timed("core.Problem.SolveILP", req, func() {
					_, ir, serr := res.Problem.SolveILP(core.ILPOptions{NodeLimit: 50000, WarmStart: res.Heuristic})
					err = serr
					if ir != nil {
						n = ir.Nodes
					}
				})
				if err != nil {
					return err
				}
				solve += d
				cellTime += d
				nodes += n
				solves++
			}
			slowest = max(slowest, cellTime)
			all += cellTime
			cells++
		}
	}
	v["ilp.solve_ms"] = msf(solve) / float64(solves)
	if nodes > 0 {
		v["ilp.us_per_node"] = float64(solve) / float64(time.Microsecond) / float64(nodes)
	}
	v["repro.cell_heur_ms"] = msf(heur) / float64(cells)
	v["ilp.nodes"] = float64(nodes)
	v["repro.straggler_ratio"] = float64(slowest) / (float64(all) / float64(workers))
	return nil
}

func solveCacheEntries(pfx map[string]*flow.Prefix) int {
	n := 0
	for _, p := range pfx {
		n += p.Solves.Len()
	}
	return n
}
