package variation

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestSampleBlockIntoMatchesSampleInto: every lane of a sampled block must
// be bit-identical to a scalar SampleInto of the same seed, across regrows
// of one reused block (shrinking and growing the lane count).
func TestSampleBlockIntoMatchesSampleInto(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	s := NewSampler(pl, proc, Default())
	ref := NewSampler(pl, proc, Default())
	blk := &DieBlock{}
	for _, seeds := range [][]int64{
		{11, 22, 33, 44, 55},
		{7},
		{101, 102, 103, 104, 105, 106, 107},
	} {
		blk = s.SampleBlockInto(blk, seeds)
		if blk.Len() != len(seeds) {
			t.Fatalf("block Len %d, want %d", blk.Len(), len(seeds))
		}
		for d, seed := range seeds {
			die := blk.Die(d)
			if die.Seed != seed {
				t.Fatalf("lane %d seed %d, want %d", d, die.Seed, seed)
			}
			want := ref.SampleInto(nil, seed)
			if len(die.DVthV) != len(want.DVthV) {
				t.Fatalf("lane %d: %d gates, want %d", d, len(die.DVthV), len(want.DVthV))
			}
			for g := range want.DVthV {
				if die.DVthV[g] != want.DVthV[g] || die.DelayScale[g] != want.DelayScale[g] {
					t.Fatalf("seed %d gate %d: (%v, %v), want (%v, %v)", seed, g,
						die.DVthV[g], die.DelayScale[g], want.DVthV[g], want.DelayScale[g])
				}
			}
		}
	}
}

// TestLeakageBlockNWMatchesScalar: the fused block sweep must reproduce
// SetDie + LeakageNW(nil) bit for bit on every listed lane — and must not
// disturb the model's SetDie state while doing it.
func TestLeakageBlockNWMatchesScalar(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	s := NewSampler(pl, proc, Default())
	lm := NewLeakModel(pl, proc)
	blk := s.SampleBlockInto(nil, []int64{3, 5, 8, 13, 21})

	want := make([]float64, blk.Len())
	for d := range want {
		lm.SetDie(blk.Die(d))
		want[d] = lm.LeakageNW(nil)
	}
	// Pin lane 0 as the SetDie state and prove the block sweep leaves it.
	lm.SetDie(blk.Die(0))
	pinned := lm.LeakageNW(nil)

	lanes := []int{0, 2, 4}
	got := lm.LeakageBlockNW(blk, lanes, nil)
	if len(got) != len(lanes) {
		t.Fatalf("%d outputs for %d lanes", len(got), len(lanes))
	}
	for k, d := range lanes {
		if got[k] != want[d] {
			t.Fatalf("lane %d: %v, want %v", d, got[k], want[d])
		}
	}
	if after := lm.LeakageNW(nil); after != pinned {
		t.Fatalf("block sweep disturbed SetDie state: %v, want %v", after, pinned)
	}
	// Appending into a reused buffer keeps earlier entries.
	got = lm.LeakageBlockNW(blk, []int{1}, got[:0])
	if len(got) != 1 || got[0] != want[1] {
		t.Fatalf("reused-buffer sweep: %v, want [%v]", got, want[1])
	}
}

// TestYieldStreamBatchWidthInvariance: the batch width is a pure locality
// knob — per-die results and aggregate statistics must be byte-identical to
// the scalar TuneOn loop at every width and worker count, including widths
// that do not divide the die count (partial tail batches), widths larger
// than the population, and widths that leave RunLightBatch's AVX2 kernel
// whole four-lane blocks, only Go leftover lanes, or both — for the sampled
// re-timing and for the padded re-timing of the biased lanes.
func TestYieldStreamBatchWidthInvariance(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	const dies = 37 // not divisible by any tested width > 1
	defer func(saved int) { batchWidth = saved }(batchWidth)
	const seed = 19
	opts := TuneOptions{GuardbandPct: 0.005}

	// Scalar reference: the per-die TuneOn loop, one worker, no batching.
	pl := an.Placement()
	m := Default()
	tn := NewTuner(NewRetimer(an), al)
	want := make([]*TuneResult, dies)
	{
		o := opts
		o.setDefaults()
		for i := 0; i < dies; i++ {
			die := m.Sample(pl, proc, DieSeed(seed, i))
			r, err := TuneOn(tn, nom, die, proc, o)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r
		}
	}

	var baseline *YieldStats
	for _, width := range []int{1, 3, 4, 5, 16, 17, 64} {
		batchWidth = width
		for _, workers := range []int{1, 4} {
			o := opts
			o.Workers = workers
			got, err := YieldStream(context.Background(), an, al, nom, proc, m, dies, seed, o,
				func(die int, r *TuneResult) error {
					requireTuneResultEqual(t, die, want[die], r)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if got.Dies != dies {
				t.Fatalf("width=%d workers=%d: Dies %d, want %d", width, workers, got.Dies, dies)
			}
			if baseline == nil {
				baseline = got
			} else if *got != *baseline {
				t.Fatalf("width=%d workers=%d stats diverged:\ngot  %+v\nwant %+v",
					width, workers, got, baseline)
			}
		}
	}
}

// TestYieldStreamSharedSolveCache: a prefix-level SolveCache changes no
// statistics (cached and fresh solves are identical), gets warmed by the
// first stream, and is rejected when built over a foreign Allocator.
func TestYieldStreamSharedSolveCache(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	opts := TuneOptions{GuardbandPct: 0.005}
	want, err := YieldStream(context.Background(), an, al, nom, proc, Default(), 20, 7, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := core.NewSolveCache(al)
	o := opts
	o.SolveCache = cache
	for run := 0; run < 2; run++ {
		got, err := YieldStream(context.Background(), an, al, nom, proc, Default(), 20, 7, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("run %d: shared-cache stats diverged:\ngot  %+v\nwant %+v", run, got, want)
		}
	}
	if cache.Len() == 0 {
		t.Error("population stream did not warm the shared cache")
	}

	_, al2, _ := streamFixture(t)
	o.SolveCache = core.NewSolveCache(al2)
	if _, err := YieldStream(context.Background(), an, al, nom, proc, Default(), 4, 7, o, nil); err == nil {
		t.Error("foreign-allocator cache accepted")
	}
	tn := NewTuner(NewRetimer(an), al)
	die := Default().Sample(an.Placement(), proc, 1)
	if _, err := TuneOn(tn, nom, die, proc, o); err == nil {
		t.Error("TuneOn accepted a foreign-allocator cache")
	}
}

// TestSolveCacheHoldsOnlyRecurringTargets: with a guardband, fast dies whose
// (unquantized) negative reading the guardband lifts above zero get one-off
// allocation targets. Those must not take shared-cache slots: after many
// streams and single-die tunings the cache holds exactly one entry per
// distinct recurring first-iteration target, and every per-die result is
// the one an uncached run produces.
func TestSolveCacheHoldsOnlyRecurringTargets(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	opts := TuneOptions{GuardbandPct: 0.005, Workers: 2}
	cached := opts
	cached.SolveCache = core.NewSolveCache(al)
	limit := nom.DcritPS * (1 + slackTolPct)

	recurring := map[float64]bool{}
	oneOff := 0
	for seed := int64(0); seed < 10; seed++ {
		var want []*TuneResult
		if _, err := YieldStream(context.Background(), an, al, nom, proc, Default(), 64, seed, opts,
			func(_ int, r *TuneResult) error { want = append(want, r); return nil }); err != nil {
			t.Fatal(err)
		}
		for _, r := range want {
			target := r.BetaSensed + opts.GuardbandPct
			switch {
			case r.DcritBeforePS <= limit && target <= 0: // fast die, never allocates
			case r.BetaSensed >= 0:
				recurring[target] = true
			case target <= 0:
				recurring[0.005] = true
			default:
				oneOff++
			}
		}
		if _, err := YieldStream(context.Background(), an, al, nom, proc, Default(), 64, seed, cached,
			func(d int, r *TuneResult) error { requireTuneResultEqual(t, d, want[d], r); return nil }); err != nil {
			t.Fatal(err)
		}
		tn := NewTuner(NewRetimer(an), al)
		for d := 0; d < 8; d++ {
			die := Default().Sample(an.Placement(), proc, DieSeed(seed, d))
			got, err := TuneOn(tn, nom, die, proc, cached)
			if err != nil {
				t.Fatal(err)
			}
			requireTuneResultEqual(t, d, want[d], got)
		}
	}
	if oneOff == 0 {
		t.Fatal("fixture produced no one-off targets; the test would not exercise the memo filter")
	}
	if got := cached.SolveCache.Len(); got != len(recurring) {
		t.Errorf("shared cache holds %d entries, want %d distinct recurring targets (%d one-off tails seen)", got, len(recurring), oneOff)
	}
}

// TestWilsonHalfWidthBruteForce pins the closed-form interval against a
// bisection of its defining equation: the Wilson bounds are the roots p of
// (p̂-p)² = z²·p(1-p)/n, and the half-width is half their distance.
func TestWilsonHalfWidthBruteForce(t *testing.T) {
	root := func(n, s int, lo, hi float64) float64 {
		phat := float64(s) / float64(n)
		f := func(p float64) float64 {
			return (phat-p)*(phat-p) - wilsonZ*wilsonZ*p*(1-p)/float64(n)
		}
		// f > 0 outside the interval, < 0 inside; bisect the sign change.
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if (f(lo) > 0) == (f(mid) > 0) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
	for _, c := range []struct{ n, s int }{
		{1, 0}, {1, 1}, {5, 3}, {20, 20}, {50, 49}, {100, 97}, {400, 380}, {1000, 500},
	} {
		lower := root(c.n, c.s, 0, float64(c.s)/float64(c.n))
		upper := root(c.n, c.s, float64(c.s)/float64(c.n), 1)
		want := (upper - lower) / 2
		got := wilsonHalfWidth(c.n, c.s)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d s=%d: halfwidth %v, brute-force %v", c.n, c.s, got, want)
		}
	}
}

// TestYieldStreamAdaptiveTruncation: with TargetCI set, the stream stops at
// the first die whose accumulation satisfies the interval, and the truncated
// stats are byte-identical to a fixed-count study of exactly that die count.
// Without TargetCI every requested die runs.
func TestYieldStreamAdaptiveTruncation(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	const cap = 200
	opts := TuneOptions{GuardbandPct: 0.005, TargetCI: 0.08}

	var emitted []int
	adaptive, err := YieldStream(context.Background(), an, al, nom, proc, Default(), cap, 7, opts,
		func(die int, r *TuneResult) error {
			emitted = append(emitted, die)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Dies >= cap {
		t.Fatalf("adaptive study ran all %d dies; TargetCI never converged", cap)
	}
	if adaptive.Dies < 2 {
		t.Fatalf("adaptive study stopped after %d dies; interval math is broken", adaptive.Dies)
	}
	if len(emitted) != adaptive.Dies || emitted[len(emitted)-1] != adaptive.Dies-1 {
		t.Fatalf("emitted %d dies (last %d), stats report %d",
			len(emitted), emitted[len(emitted)-1], adaptive.Dies)
	}
	// The stopping die is the *first* satisfying one: one die earlier the
	// interval must still be open.
	if wilsonHalfWidth(adaptive.Dies, adaptive.MetAfter) > opts.TargetCI {
		t.Fatal("stream stopped before the interval converged")
	}

	fixed := TuneOptions{GuardbandPct: 0.005}
	want, err := YieldStream(context.Background(), an, al, nom, proc, Default(), adaptive.Dies, 7, fixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *adaptive != *want {
		t.Fatalf("truncated study diverged from the fixed-count study:\nadaptive %+v\nfixed    %+v",
			adaptive, want)
	}

	full, err := YieldStream(context.Background(), an, al, nom, proc, Default(), 60, 7, fixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Dies != 60 {
		t.Fatalf("default-off study ran %d of 60 dies", full.Dies)
	}
}

// TestYieldStatsWorstBetaFastOnly is the WorstBetaPct zero-floor regression:
// a population whose every die is faster than nominal has a negative worst
// slowdown, and the stats must report that maximum — not a phantom 0%.
func TestYieldStatsWorstBetaFastOnly(t *testing.T) {
	an, al, nom := streamFixture(t)
	pl := an.Placement()
	proc := tech.Default45nm()
	// Die-to-die shift only: a die whose single d2d draw is negative has
	// every gate faster than nominal (DelayScale < 1 everywhere), so its
	// beta is strictly negative. Find a seed whose first dies are all fast.
	m := Model{SigmaD2DmV: 30}
	const dies = 5
	s := NewSampler(pl, proc, m)
	seed := int64(-1)
search:
	for cand := int64(0); cand < 1000; cand++ {
		for i := 0; i < dies; i++ {
			die := s.SampleInto(nil, DieSeed(cand, i))
			for _, ds := range die.DelayScale {
				if ds >= 1 {
					continue search
				}
			}
		}
		seed = cand
		break
	}
	if seed < 0 {
		t.Fatal("no all-fast seed in 1000 candidates; model assumption broken")
	}

	worst := math.Inf(-1)
	st, err := YieldStream(context.Background(), an, al, nom, proc, m, dies, seed,
		TuneOptions{GuardbandPct: 0.005},
		func(die int, r *TuneResult) error {
			if r.BetaActual >= 0 {
				t.Fatalf("die %d not fast (beta %v); fixture broken", die, r.BetaActual)
			}
			if b := r.BetaActual * 100; b > worst {
				worst = b
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.WorstBetaPct >= 0 {
		t.Fatalf("all-fast population reports WorstBetaPct %v; zero floor is back", st.WorstBetaPct)
	}
	if st.WorstBetaPct != worst {
		t.Fatalf("WorstBetaPct %v, want the true maximum %v", st.WorstBetaPct, worst)
	}
}

// requireTuneResultBits fails unless got equals want on every TuneResult
// field: floats by their bits, the Solution deep-equal.
func requireTuneResultBits(tb testing.TB, die int, want, got *TuneResult) {
	tb.Helper()
	bits := math.Float64bits
	if bits(want.BetaActual) != bits(got.BetaActual) || bits(want.BetaSensed) != bits(got.BetaSensed) ||
		bits(want.DcritBeforePS) != bits(got.DcritBeforePS) || bits(want.DcritAfterPS) != bits(got.DcritAfterPS) ||
		bits(want.LeakBeforeNW) != bits(got.LeakBeforeNW) || bits(want.LeakAfterNW) != bits(got.LeakAfterNW) ||
		want.Met != got.Met || want.Reason != got.Reason || want.Iters != got.Iters ||
		!reflect.DeepEqual(want.Solution, got.Solution) {
		tb.Fatalf("die %d diverged from TuneOn:\nwant %+v (solution %+v)\ngot  %+v (solution %+v)",
			die, want, want.Solution, got, got.Solution)
	}
}

// TestYieldStreamEscalationMatchesTuneOn: the batched stream runs every
// biased die's first allocation and re-time in the batch and enters the
// escalation loop at its second attempt; TuneOn runs the same loop from the
// first. On populations tuned to escalate (a wide die-to-die spread, one
// cluster, a negative guardband) each die's
// TuneResult must be identical, including the dies that need several
// attempts, the dies whose first solve is beyond the compensation range and
// the dies that run out of attempts.
func TestYieldStreamEscalationMatchesTuneOn(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	pl := an.Placement()
	m := Model{SigmaD2DmV: 50, SigmaSysmV: 12, SigmaRndmV: 8, CorrLenUM: 150}
	const dies = 45
	const seed = 5
	defer func(saved int) { batchWidth = saved }(batchWidth)
	base := TuneOptions{GuardbandPct: -0.02, MaxClusters: 1}
	capped := base
	capped.MaxIters = 2
	escalated, firstFailed, exhausted := 0, 0, 0
	for _, opts := range []TuneOptions{base, capped} {
		tn := NewTuner(NewRetimer(an), al)
		want := make([]*TuneResult, dies)
		for i := range want {
			r, err := TuneOn(tn, nom, m.Sample(pl, proc, DieSeed(seed, i)), proc, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r
			switch {
			case r.Iters >= 2 && r.Met:
				escalated++
			case r.Iters == 1 && r.Solution == nil && r.Reason != "":
				firstFailed++
			case r.Iters == opts.MaxIters && !r.Met && r.Solution != nil:
				exhausted++
			}
		}
		for _, width := range []int{16, 5} {
			batchWidth = width
			for _, workers := range []int{1, 2} {
				o := opts
				o.Workers = workers
				if _, err := YieldStream(context.Background(), an, al, nom, proc, m, dies, seed, o,
					func(die int, r *TuneResult) error {
						requireTuneResultBits(t, die, want[die], r)
						return nil
					}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Logf("%d dies escalated, %d failed their first solve, %d ran out of attempts", escalated, firstFailed, exhausted)
	if escalated == 0 || firstFailed == 0 || exhausted == 0 {
		t.Fatalf("fixture lost its coverage: %d escalated, %d failed first solves, %d out of attempts; want each > 0",
			escalated, firstFailed, exhausted)
	}
}
