package variation

import (
	"context"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

func benchPlaced(b *testing.B, name string) *place.Placement {
	b.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

// BenchmarkYieldStudy measures the full Monte-Carlo tuning loop per die —
// the hot path the Analyzer refactor attacks. Sequential workers so the
// per-die cost is directly comparable run to run.
func BenchmarkYieldStudy(b *testing.B) {
	pl := benchPlaced(b, "c5315")
	proc := tech.Default45nm()
	m := Default()
	const dies = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yieldStudy(b, pl, proc, m, dies, 7, TuneOptions{GuardbandPct: 0.005, Workers: 1})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dies), "ns/die")
}

// yieldBench is the shared fixture of the per-die pipeline benchmarks.
type yieldBench struct {
	pl   *place.Placement
	proc *tech.Process
	m    Model
	an   *sta.Analyzer
	nom  *sta.Timing
	al   *core.Allocator
}

func newYieldBench(b *testing.B, name string) *yieldBench {
	b.Helper()
	pl := benchPlaced(b, name)
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nom, err := an.Run(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		b.Fatal(err)
	}
	return &yieldBench{pl: pl, proc: tech.Default45nm(), m: Default(), an: an, nom: nom, al: al}
}

var benchCircuits = []string{"c5315", "c6288", "industrial1"}

// BenchmarkSampleInto measures the die-sampling stage: the buffer-reusing
// wave-major Sampler against the allocating one-shot Model.Sample.
func BenchmarkSampleInto(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			y := newYieldBench(b, name)
			smp := NewSampler(y.pl, y.proc, y.m)
			die := smp.SampleInto(nil, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.SampleInto(die, DieSeed(7, i))
			}
		})
	}
}

func BenchmarkSampleAlloc(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			y := newYieldBench(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y.m.Sample(y.pl, y.proc, DieSeed(7, i))
			}
		})
	}
}

// BenchmarkDieRetimeLight measures the Dcrit-only die re-time against the
// path-extracting full Run (BenchmarkDieRetimeRetimer).
func BenchmarkDieRetimeLight(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			y := newYieldBench(b, name)
			die := y.m.Sample(y.pl, y.proc, 7)
			rt := NewRetimer(y.an)
			if _, err := rt.TimeLight(die); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.TimeLight(die); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeakModel measures the per-die leakage stage — SetDie's exp pass
// plus an unbiased and a biased multiply-add sweep — against the scalar
// per-gate loop doing the same two evaluations.
func BenchmarkLeakModel(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			y := newYieldBench(b, name)
			die := y.m.Sample(y.pl, y.proc, 7)
			assign := benchAssign(y.pl)
			lm := NewLeakModel(y.pl, y.proc)
			lm.SetDie(die)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lm.SetDie(die)
				_ = lm.LeakageNW(nil)
				_ = lm.LeakageNW(assign)
			}
		})
	}
}

func BenchmarkLeakScalar(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			y := newYieldBench(b, name)
			die := y.m.Sample(y.pl, y.proc, 7)
			assign := benchAssign(y.pl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = die.LeakageNW(y.pl, y.proc, nil)
				_ = die.LeakageNW(y.pl, y.proc, assign)
			}
		})
	}
}

func benchAssign(pl *place.Placement) []int {
	assign := make([]int, pl.NumRows)
	for r := range assign {
		assign[r] = r % pl.Lib.Grid.NumLevels()
	}
	return assign
}

// BenchmarkYieldPerDie is the tentpole end-to-end measurement: the full
// warmed-up per-die pipeline — sample, die re-time, sense, allocate,
// verify, leakage — through the fast path (SampleInto + TimeLight +
// LeakModel) and through the pre-refactor full path (allocating Sample +
// path-extracting re-times + scalar leakage). Sequential, so ns/op is the
// per-die cost.
func BenchmarkYieldPerDie(b *testing.B) {
	opts := TuneOptions{GuardbandPct: 0.005}
	opts.setDefaults()
	for _, name := range benchCircuits {
		b.Run(name+"/fast", func(b *testing.B) {
			y := newYieldBench(b, name)
			smp := NewSampler(y.pl, y.proc, y.m)
			tn := NewTuner(NewRetimer(y.an), y.al)
			tn.leak = NewLeakModel(y.pl, y.proc)
			fast := opts
			fast.SolveCache = core.NewSolveCache(y.al)
			die := smp.SampleInto(nil, DieSeed(7, 0))
			if _, err := TuneOn(tn, y.nom, die, y.proc, fast); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				die = smp.SampleInto(die, DieSeed(7, i))
				if _, err := TuneOn(tn, y.nom, die, y.proc, fast); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/full", func(b *testing.B) {
			y := newYieldBench(b, name)
			var inst *core.Instance
			die := y.m.Sample(y.pl, y.proc, DieSeed(7, 0))
			if _, err := referenceTuneOn(y.pl, y.al, &inst, y.nom, die, y.proc, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				die := y.m.Sample(y.pl, y.proc, DieSeed(7, i))
				if _, err := referenceTuneOn(y.pl, y.al, &inst, y.nom, die, y.proc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkYieldPopulation is the serving-shape population aggregate: every
// iteration runs one fresh YieldStream over a fixed population — what a
// single /v1/yield request costs — against a persistent prefix-level
// SolveCache shared across requests, exactly how fbbd holds one per warmed
// design. ns/die here is the population-aggregate cost per die (BENCH_7.json
// and BENCH_5.json recorded it and the per-die fast path in older schemas;
// they are historical records, not baselines).
func BenchmarkYieldPopulation(b *testing.B) {
	const dies = 64
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			y := newYieldBench(b, name)
			opts := TuneOptions{
				GuardbandPct: 0.005,
				Workers:      1,
				SolveCache:   core.NewSolveCache(y.al),
			}
			run := func() {
				if _, err := YieldStream(context.Background(), y.an, y.al, y.nom,
					y.proc, y.m, dies, 7, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the analyzer scratch and the solve cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dies), "ns/die")
		})
	}
}

// TestYieldBatchStagesAllocFree is the allocation budget of the batched
// kernel: warmed-up block sampling, the die-major light re-time, and the
// fused unbiased leakage sweep allocate nothing per batch.
func TestYieldBatchStagesAllocFree(t *testing.T) {
	pl := placed(t, "c5315")
	proc := tech.Default45nm()
	smp := NewSampler(pl, proc, Default())
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLeakModel(pl, proc)
	const w = 8
	seeds := make([]int64, w)
	lanes := []int{0, 2, 5, 7}
	var blk *DieBlock
	var tb *sta.TimingBatch
	var leak []float64
	i := 0
	fill := func() {
		for d := range seeds {
			i++
			seeds[d] = DieSeed(7, i)
		}
	}
	fill()
	blk = smp.SampleBlockInto(blk, seeds)
	if tb, err = an.RunLightBatch(blk.DelayScale, w, tb); err != nil {
		t.Fatal(err)
	}
	leak = lm.LeakageBlockNW(blk, lanes, leak)
	if n := testing.AllocsPerRun(20, func() {
		fill()
		blk = smp.SampleBlockInto(blk, seeds)
		var err error
		if tb, err = an.RunLightBatch(blk.DelayScale, w, tb); err != nil {
			panic(err)
		}
		leak = lm.LeakageBlockNW(blk, lanes, leak[:0])
	}); n != 0 {
		t.Errorf("warmed-up batch sample+retime+leak stages allocate %v/op, want 0", n)
	}
}

// TestYieldPerDiePipelineAllocFree is the allocation budget of the
// acceptance criteria: the warmed-up sample + light re-time + leakage
// stages of the per-die loop allocate nothing. (The tune stage itself
// reports a fresh TuneResult and Solution per die by contract, so the
// budget pins the stages below it.)
func TestYieldPerDiePipelineAllocFree(t *testing.T) {
	pl := placed(t, "c5315")
	proc := tech.Default45nm()
	m := Default()
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRetimer(an)
	smp := NewSampler(pl, proc, m)
	lm := NewLeakModel(pl, proc)
	assign := benchAssign(pl)
	die := smp.SampleInto(nil, DieSeed(7, 0))
	if _, err := rt.TimeLight(die); err != nil {
		t.Fatal(err)
	}
	lm.SetDie(die)
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		i++
		smp.SampleInto(die, DieSeed(7, i))
		dc, err := rt.TimeLight(die)
		if err != nil || dc <= 0 {
			panic("light re-time failed")
		}
		if _, err := rt.TimeWithBiasLight(die, proc, assign); err != nil {
			panic(err)
		}
		lm.SetDie(die)
		_ = lm.LeakageNW(nil)
		_ = lm.LeakageNW(assign)
	}); n != 0 {
		t.Errorf("warmed-up sample+retime+leak pipeline allocates %v/op, want 0", n)
	}
}

// BenchmarkDieRetimeAnalyze is the seed per-die re-timing path: a fresh
// graph build for every corner.
func BenchmarkDieRetimeAnalyze(b *testing.B) {
	pl := benchPlaced(b, "c5315")
	proc := tech.Default45nm()
	die := Default().Sample(pl, proc, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := die.Timing(pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDieRetimeRetimer is the batched path: shared Analyzer, reused
// buffers.
func BenchmarkDieRetimeRetimer(b *testing.B) {
	pl := benchPlaced(b, "c5315")
	proc := tech.Default45nm()
	die := Default().Sample(pl, proc, 7)
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := an.Run(die.DelayScale, nil) // warm the buffers
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Run(die.DelayScale, tm); err != nil {
			b.Fatal(err)
		}
	}
}
