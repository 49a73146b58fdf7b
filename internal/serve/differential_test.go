package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/cell"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/tech"
	"repro/internal/variation"
)

// This file is the end-to-end differential net of the service: for a grid
// of configs, the exact response bytes of /v1/tune and /v1/table1 must
// equal the in-process drivers (repro.RunOn / variation.TuneOn /
// repro.Table1) encoded the same way. A service that drifts from the
// library — a lost option, a different default, a nondeterministic field —
// fails on bytes, not on vibes.

// localPrefix builds the same prefix the server would, bypassing its cache.
func localPrefix(t *testing.T, bench string) *flow.Prefix {
	t.Helper()
	d, err := gen.Build(bench, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	pfx, err := flow.PrefixFor(d, cell.Default(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return pfx
}

func TestTuneDifferentialAgainstRunOn(t *testing.T) {
	_, c := newTestServer(t, Options{})
	eng := flow.New()

	benches := []string{"c1355"}
	solvers := []string{"", "local"}
	if !testing.Short() {
		benches = append(benches, "c3540")
	}
	for _, bench := range benches {
		for _, beta := range []float64{0.05, 0.10} {
			for _, cMax := range []int{2, 3} {
				for _, solver := range solvers {
					name := fmt.Sprintf("%s/beta%g/C%d/%s", bench, beta, cMax, solver)
					t.Run(name, func(t *testing.T) {
						res, err := repro.RunOn(eng, repro.Config{
							Benchmark:   bench,
							Beta:        beta,
							MaxClusters: cMax,
							Solver:      solver,
							SkipLayout:  true,
						})
						if err != nil {
							t.Fatal(err)
						}
						want := encodeJSON(t, TuneResponse{Summary: res.Summarize()})

						req := encodeJSON(t, TuneRequest{
							DesignRef:   DesignRef{Benchmark: bench},
							Beta:        beta,
							MaxClusters: cMax,
							Solver:      solver,
						})
						status, got := postRaw(t, c, "/v1/tune", string(req))
						if status != 200 {
							t.Fatalf("status %d: %s", status, got)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("response drifted from repro.RunOn:\n got: %s\nwant: %s", got, want)
						}
					})
				}
			}
		}
	}
}

func TestTuneDieDifferentialAgainstTuneOn(t *testing.T) {
	_, c := newTestServer(t, Options{})
	pfx := localPrefix(t, "c1355")
	proc := tech.Default45nm()
	model := variation.Default()

	for _, seed := range []int64{3, 17, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tn := variation.NewTuner(variation.NewRetimer(pfx.Analyzer), pfx.Allocator)
			die := model.Sample(pfx.Placement, proc, seed)
			tr, err := variation.TuneOn(tn, pfx.Timing, die, proc, variation.TuneOptions{
				GuardbandPct: defaultGuardbandPct,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := encodeJSON(t, TuneResponse{Die: dieResult(0, seed, tr, pfx.Placement.Lib.Grid)})

			req := encodeJSON(t, TuneRequest{
				DesignRef: DesignRef{Benchmark: "c1355"},
				Die:       &DieRequest{Seed: seed},
			})
			status, got := postRaw(t, c, "/v1/tune", string(req))
			if status != 200 {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("die response drifted from variation.TuneOn:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

func TestTable1DifferentialAgainstDriver(t *testing.T) {
	_, c := newTestServer(t, Options{})
	benches := []string{"c1355", "bogus"} // error rows must match too
	betas := []float64{0.05, 0.10}

	rows, err := repro.NewRunner(1).Table1(repro.Table1Options{
		Benchmarks:   benches,
		Betas:        betas,
		ILPGateLimit: 1, // heuristic columns only: budget-free, deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeJSON(t, Table1Response{Rows: rows})

	req := encodeJSON(t, Table1Request{
		Benchmarks:   benches,
		Betas:        betas,
		ILPGateLimit: 1,
	})
	status, got := postRaw(t, c, "/v1/table1", string(req))
	if status != 200 {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("table1 drifted from repro.Table1:\n got: %s\nwant: %s", got, want)
	}
}

// TestYieldDifferentialAgainstYieldStream pins the whole NDJSON stream —
// every per-die line and the stats footer — to the in-process
// variation.YieldStream on the same prefix, seeds and options.
func TestYieldDifferentialAgainstYieldStream(t *testing.T) {
	_, c := newTestServer(t, Options{})
	pfx := localPrefix(t, "c1355")
	proc := tech.Default45nm()
	model := variation.Default()

	const dies, seed = 8, 77
	var want bytes.Buffer
	opts := variation.TuneOptions{GuardbandPct: defaultGuardbandPct, Workers: 2}
	stats, err := variation.YieldStream(context.Background(),
		pfx.Analyzer, pfx.Allocator, pfx.Timing, proc, model, dies, seed, opts,
		func(die int, tr *variation.TuneResult) error {
			want.Write(encodeJSON(t, dieResult(die, variation.DieSeed(seed, die), tr, pfx.Placement.Lib.Grid)))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want.Write(encodeJSON(t, YieldFooter{Stats: yieldStatsJSON(stats)}))

	req := encodeJSON(t, YieldRequest{
		DesignRef: DesignRef{Benchmark: "c1355"},
		Dies:      dies, Seed: seed, Workers: 2,
	})
	status, got := postRaw(t, c, "/v1/yield", string(req))
	if status != 200 {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("yield stream drifted from variation.YieldStream:\n got: %s\nwant: %s", got, want.String())
	}
}
