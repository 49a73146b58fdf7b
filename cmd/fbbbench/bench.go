package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times a run sets the system up from scratch; the
// median is setup_s and the last set-up is the one the load runs against.
const setupReps = 5

// workload is one named traffic mix. Its inputs derive from the seed and
// the operation id alone.
type workload interface {
	// op names what one latency sample measures.
	op() string
	// usesCluster reports whether the workload needs the HTTP cluster.
	usesCluster() bool
	// setup brings a freshly started system to the state the measured
	// phase starts from; the harness times it.
	setup(ctx context.Context, b *bench) error
	// measure drives the load until the deadline.
	measure(ctx context.Context, b *bench, until time.Time) *load
	// check compares the kept answers with the in-process library and
	// returns how many differ.
	check(b *bench) (int, error)
	// replay times the layers' public functions on a subsample of the
	// run's inputs (traced runs only). It returns, per replayed request
	// id, the compute the replay measured, for the handler residual.
	replay(b *bench, v values) (map[int64]time.Duration, error)
}

// workloads maps each name to its constructor; order lists them for -workload all.
var workloads = map[string]func(cfg config) workload{
	"tune-open":    newTuneOpen,
	"yield-closed": newYieldClosed,
	"cold-upload":  newColdUpload,
	"table1-batch": newTable1Batch,
}

func workloadNames() []string {
	return []string{"tune-open", "yield-closed", "cold-upload", "table1-batch"}
}

// bench is the state one run shares with its workload.
type bench struct {
	cfg   config
	nproc int
	cl    *cluster // nil for in-process workloads
	tr    *tracer  // nil unless traced
}

func inSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func runWorkload(cfg config) (*result, *report, error) {
	ctx := context.Background()
	w := workloads[cfg.workload](cfg)
	b := &bench{cfg: cfg, nproc: runtime.NumCPU()}
	if cfg.trace {
		b.tr = newTracer()
	}
	defer func() {
		if b.cl != nil {
			b.cl.close()
		}
	}()

	m := &measured{replicaCap: replicas * runtime.GOMAXPROCS(0)}
	for r := 0; r < setupReps; r++ {
		if b.cl != nil {
			b.cl.close()
			b.cl = nil
		}
		start := time.Now()
		if w.usesCluster() {
			cl, err := startCluster(b.tr)
			if err != nil {
				return nil, nil, err
			}
			b.cl = cl
		}
		if err := w.setup(ctx, b); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		m.setups = append(m.setups, time.Since(start))
	}

	var err error
	if b.cl != nil {
		if m.before, err = b.cl.stats(); err != nil {
			return nil, nil, err
		}
	}
	if b.tr != nil {
		b.tr.reset()
	}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, nil, err
	}
	m.rt0 = readRuntime()
	rss := startRSS()
	m.ld = w.measure(ctx, b, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))))
	m.rt1 = readRuntime()
	cpu1, err := cpuTime()
	if err != nil {
		return nil, nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.rssMB, err = rss.median(); err != nil {
		return nil, nil, err
	}
	if b.cl != nil {
		if m.after, err = b.cl.stats(); err != nil {
			return nil, nil, err
		}
		b.cl.close()
		b.cl = nil
	}
	if b.tr != nil {
		m.spans = b.tr.snapshot()
	}
	mism, err := w.check(b)
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	m.ld.f.Mismatches = mism

	e2e := endToEndValues(m)
	lagP99 := quantile(m.ld.lag, 0.99)
	rep := &report{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Traced:   cfg.trace,
		Valid:    true,
		LagP99MS: msf(lagP99),
		Host:     readHost(),
		Op:       w.op(),
		Ops:      len(m.ld.lat),
		SetupS:   inSeconds(m.setups),
		LatencyMS: map[string]float64{
			"p50":   msf(quantile(m.ld.lat, 0.5)),
			"p90":   msf(quantile(m.ld.lat, 0.9)),
			"p99":   msf(quantile(m.ld.lat, 0.99)),
			"p99.9": msf(quantile(m.ld.lat, 0.999)),
			"max":   msf(quantile(m.ld.lat, 1)),
		},
		Failures: m.ld.f,
		EndToEnd: e2e.emit(endToEnd),
	}
	if m.ld.firstErr != nil {
		rep.FirstError = m.ld.firstErr.Error()
	}
	switch {
	case lagP99 > 2*time.Millisecond:
		rep.Valid, rep.Invalid = false, fmt.Sprintf("generator lag p99 %.3f ms > 2 ms", msf(lagP99))
	case m.ld.f.Late > 0:
		rep.Valid, rep.Invalid = false, fmt.Sprintf("%d request(s) sent more than %v late", m.ld.f.Late, lateLimit)
	}
	res := &result{
		Correct:   m.ld.f.Mismatches == 0 && m.ld.f.Errors == 0,
		Attempted: max(m.ld.attempted, 1),
		Failed:    m.ld.f.total(),
		Metrics:   e2e.emit(endToEnd),
	}
	if !cfg.trace {
		return res, rep, nil
	}

	layers := values{}
	compute, err := w.replay(b, layers)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	harnessLayers(layers, m, compute)
	res.Metrics = layers.emit(perLayer)
	if cfg.spans != "" {
		if err := b.tr.write(cfg.spans); err != nil {
			return nil, nil, err
		}
	}
	return res, rep, nil
}
