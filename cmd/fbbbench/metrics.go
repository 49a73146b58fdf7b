package main

import (
	"sort"
	"time"

	"repro/internal/serve"
)

// metricDef names a metric and its unit. The two tables below are the
// benchmark's whole output vocabulary; BENCHMARK.json lists the same names
// (the smoke test checks that they agree).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. An op is one tune
// request (tune-open, cold-upload), one 64-die yield stream
// (yield-closed) or one Table 1 pass (table1-batch).
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median of setupReps fresh set-ups
	{"op_p50_ms", "ms"},     // median latency of successful ops
	{"op_p90_ms", "ms"},     // 90th percentile latency of successful ops
	{"ops_per_s", "1/s"},    // successful ops per second of the measured phase
	{"cpu_ms_per_op", "ms"}, // process CPU time per successful op
	{"rss_mb", "MB"},        // median resident set during the measured phase
}

// perLayer are the metrics of single layers, printed by traced runs. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms"},
	{"client.self_p50_ms", "ms"},
	{"router.self_p50_ms", "ms"},
	{"router.forward_p50_ms", "ms"},
	{"router.spills", "count"},
	{"router.shed", "count"},
	{"router.trips", "count"},
	{"router.owner_skew", "ratio"},
	{"fbbd.handler_p50_ms", "ms"},
	{"fbbd.handler_p99_ms", "ms"},
	{"fbbd.ttfb_p50_ms", "ms"},
	{"fbbd.busy_ratio", "ratio"},
	{"fbbd.shed", "count"},
	{"fbbd.residual_p50_ms", "ms"},
	{"fbbd.encode_us_per_die", "us"},
	{"prefixcache.hit_ratio", "ratio"},
	{"prefixcache.builds", "count"},
	{"prefixcache.failed_joins", "count"},
	{"netlist.parse_ms", "ms"},
	{"serve.designkey_ms", "ms"},
	{"gen.build_ms", "ms"},
	{"place.place_ms", "ms"},
	{"sta.analyzer_new_ms", "ms"},
	{"sta.nominal_run_ms", "ms"},
	{"core.allocator_new_ms", "ms"},
	{"flow.prefix_ms", "ms"},
	{"repro.runwith_p50_ms", "ms"},
	{"core.at_p50_ms", "ms"},
	{"core.solve_p50_ms", "ms"},
	{"variation.sample_p50_ms", "ms"},
	{"variation.tuneon_p50_ms", "ms"},
	{"variation.yieldstream_us_per_die", "us"},
	{"variation.sample_block_us_per_die", "us"},
	{"sta.light_batch_us_per_die", "us"},
	{"variation.leak_block_us_per_die", "us"},
	{"variation.tail_us_per_tuned_die", "us"},
	{"variation.tuned_ratio", "ratio"},
	{"variation.iters_mean", "count"},
	{"yield.residual_ratio", "ratio"},
	{"core.solvecache_entries", "count"},
	{"ilp.nodes", "count"},
	{"ilp.solve_ms", "ms"},
	{"ilp.us_per_node", "us"},
	{"repro.cell_heur_ms", "ms"},
	{"repro.straggler_ratio", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cpu_ratio", "ratio"},
}

// values collects metric values by name.
type values map[string]float64

// emit returns every metric of defs with its unit; unset ones read 0.
func (v values) emit(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// measured is what the harness samples around the measured phase.
type measured struct {
	ld         *load
	setups     []time.Duration
	cpu        time.Duration
	rssMB      float64
	rt0, rt1   runtimeSample
	before     *serve.ClusterStatsResponse
	after      *serve.ClusterStatsResponse
	spans      []span
	replicaCap int // replicas × admission workers, for busy_ratio
}

func endToEndValues(m *measured) values {
	ops := len(m.ld.lat)
	v := values{
		"setup_s":   medianDur(m.setups).Seconds(),
		"op_p50_ms": msf(quantile(m.ld.lat, 0.50)),
		"op_p90_ms": msf(quantile(m.ld.lat, 0.90)),
		"rss_mb":    m.rssMB,
	}
	if ops > 0 {
		v["ops_per_s"] = float64(ops) / m.ld.elapsed().Seconds()
		v["cpu_ms_per_op"] = msf(m.cpu) / float64(ops)
	}
	return v
}

// harnessLayers fills the per-layer metrics the harness measures for every
// workload: generator lag, the HTTP spans, the cluster's counters and the
// Go runtime. fbbdCompute maps replayed request ids to the compute time
// the replay measured for them, for the handler residual.
func harnessLayers(v values, m *measured, fbbdCompute map[int64]time.Duration) {
	v["loadgen.lag_p99_ms"] = msf(quantile(m.ld.lag, 0.99))
	if ops := len(m.ld.lat); ops > 0 {
		v["go.allocs_per_op"] = float64(m.rt1.allocObjects-m.rt0.allocObjects) / float64(ops)
		v["go.alloc_bytes_per_op"] = float64(m.rt1.allocBytes-m.rt0.allocBytes) / float64(ops)
	}
	if d := m.rt1.totalCPU - m.rt0.totalCPU; d > 0 {
		v["go.gc_cpu_ratio"] = (m.rt1.gcCPU - m.rt0.gcCPU) / d
	}
	if m.before != nil && m.after != nil {
		clusterLayers(v, m.before, m.after)
	}
	if len(m.spans) == 0 {
		return
	}

	var clientSelf, routerSelf, fwdSelf, handler, ttfb, residual []time.Duration
	var busy time.Duration
	for id, h := range groupHTTP(m.spans) {
		if h.client == nil || h.router == nil {
			continue
		}
		clientSelf = append(clientSelf, h.client.dur()-covered(*h.client, []span{*h.router}))
		routerSelf = append(routerSelf, h.router.dur()-covered(*h.router, h.forwards))
		var fwd, hd time.Duration
		for _, f := range h.forwards {
			fwd += f.dur() - covered(f, h.fbbds)
		}
		fwdSelf = append(fwdSelf, fwd)
		for _, s := range h.fbbds {
			hd += s.dur()
			handler = append(handler, s.dur())
			if s.FirstByte > 0 {
				ttfb = append(ttfb, time.Duration(s.FirstByte-s.Start))
			}
		}
		busy += hd
		if c, ok := fbbdCompute[id]; ok {
			residual = append(residual, hd-c)
		}
	}
	v["client.self_p50_ms"] = msf(quantile(clientSelf, 0.5))
	v["router.self_p50_ms"] = msf(quantile(routerSelf, 0.5))
	v["router.forward_p50_ms"] = msf(quantile(fwdSelf, 0.5))
	v["fbbd.handler_p50_ms"] = msf(quantile(handler, 0.5))
	v["fbbd.handler_p99_ms"] = msf(quantile(handler, 0.99))
	v["fbbd.ttfb_p50_ms"] = msf(quantile(ttfb, 0.5))
	v["fbbd.residual_p50_ms"] = msf(quantile(residual, 0.5))
	if wall := m.ld.elapsed(); wall > 0 && m.replicaCap > 0 {
		v["fbbd.busy_ratio"] = float64(busy) / (float64(m.replicaCap) * float64(wall))
	}
}

// clusterLayers turns /v1/stats deltas over the measured phase into the
// router, replica and prefix-cache counters.
func clusterLayers(v values, before, after *serve.ClusterStatsResponse) {
	v["router.shed"] = float64(after.Router.Shed - before.Router.Shed)
	var spills, trips, shed, hits, misses, failed, builds int64
	var fwd []int64
	for i, a := range after.Replicas {
		b := before.Replicas[i]
		spills += a.Spills - b.Spills
		trips += a.Trips - b.Trips
		fwd = append(fwd, a.Forwarded-b.Forwarded)
		shed += a.Stats.Shed - b.Stats.Shed
		hits += a.Stats.Cache.Hits - b.Stats.Cache.Hits
		misses += a.Stats.Cache.Misses - b.Stats.Cache.Misses
		failed += a.Stats.Cache.FailedJoins - b.Stats.Cache.FailedJoins
		builds += a.Stats.Cache.Builds - b.Stats.Cache.Builds
	}
	v["router.spills"] = float64(spills)
	v["router.trips"] = float64(trips)
	v["fbbd.shed"] = float64(shed)
	v["prefixcache.builds"] = float64(builds)
	v["prefixcache.failed_joins"] = float64(failed)
	if n := hits + misses + failed; n > 0 {
		v["prefixcache.hit_ratio"] = float64(hits) / float64(n)
	}
	var sum, top int64
	for _, f := range fwd {
		sum += f
		top = max(top, f)
	}
	if sum > 0 {
		v["router.owner_skew"] = float64(top) / (float64(sum) / float64(len(fwd)))
	}
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
