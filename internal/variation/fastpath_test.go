package variation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// referenceTuneOn is the pre-fast-path per-die tuning loop, kept as the
// end-to-end differential reference: every die-side re-time is a one-shot
// full sta.Analyze (Die.Timing, Die.TimingWithBias: graph rebuilt, paths
// extracted and thrown away), and every leakage is the scalar per-gate
// Die.LeakageNW pass. The production loop — Dcrit-only re-times through
// the Retimer, leakage through the LeakModel tables — must reproduce its
// TuneResults bit for bit.
func referenceTuneOn(pl *place.Placement, al *core.Allocator, instp **core.Instance,
	nom *sta.Timing, die *Die, proc *tech.Process, opts TuneOptions) (*TuneResult, error) {
	opts.setDefaults()
	dieTm, err := die.Timing(pl)
	if err != nil {
		return nil, err
	}
	dieDcrit := dieTm.DcritPS
	res := &TuneResult{
		BetaActual:    dieDcrit/nom.DcritPS - 1,
		DcritBeforePS: dieDcrit,
		LeakBeforeNW:  die.LeakageNW(pl, proc, nil),
	}
	limit := nom.DcritPS * (1 + slackTolPct)

	res.BetaSensed = monitor.MeasureBeta(nom, dieTm, die.Seed)
	target := res.BetaSensed + opts.GuardbandPct
	if dieDcrit <= limit && target <= 0 {
		res.Met = true
		res.DcritAfterPS = dieDcrit
		res.LeakAfterNW = res.LeakBeforeNW
		return res, nil
	}
	if target <= 0 {
		target = 0.005
	}

	for iter := 0; iter < opts.MaxIters; iter++ {
		res.Iters = iter + 1
		inst, err := al.At(core.Options{
			Beta:         target,
			MaxClusters:  opts.MaxClusters,
			MaxBiasPairs: opts.MaxBiasPairs,
		}, *instp)
		if err != nil {
			return nil, err
		}
		*instp = inst
		sol, err := inst.Solve(opts.Solver)
		if err != nil {
			res.Reason = err.Error()
			if res.Solution == nil {
				res.Met = dieDcrit <= limit
				res.DcritAfterPS = dieDcrit
				res.LeakAfterNW = res.LeakBeforeNW
			}
			return res, nil
		}
		tuned, err := die.TimingWithBias(pl, proc, sol.Assign)
		if err != nil {
			return nil, err
		}
		res.Solution = sol.Clone()
		res.DcritAfterPS = tuned.DcritPS
		res.LeakAfterNW = die.LeakageNW(pl, proc, res.Solution.Assign)
		if tuned.DcritPS <= limit {
			res.Met = true
			return res, nil
		}
		short := tuned.DcritPS/nom.DcritPS - 1
		target += short + 0.005
	}
	res.Reason = fmt.Sprintf("not met after %d escalations", opts.MaxIters)
	return res, nil
}

func requireTuneResultEqual(tb testing.TB, die int, want, got *TuneResult) {
	tb.Helper()
	if want.BetaActual != got.BetaActual || want.BetaSensed != got.BetaSensed ||
		want.Met != got.Met || want.Reason != got.Reason || want.Iters != got.Iters ||
		want.DcritBeforePS != got.DcritBeforePS || want.DcritAfterPS != got.DcritAfterPS ||
		want.LeakBeforeNW != got.LeakBeforeNW || want.LeakAfterNW != got.LeakAfterNW {
		tb.Fatalf("die %d diverged from the full-path reference:\nwant %+v\ngot  %+v", die, want, got)
	}
	if (want.Solution == nil) != (got.Solution == nil) {
		tb.Fatalf("die %d: solution presence diverged", die)
	}
	if want.Solution != nil {
		if want.Solution.Clusters != got.Solution.Clusters ||
			len(want.Solution.Assign) != len(got.Solution.Assign) {
			tb.Fatalf("die %d: solution shape diverged", die)
		}
		for r := range want.Solution.Assign {
			if want.Solution.Assign[r] != got.Solution.Assign[r] {
				tb.Fatalf("die %d: assignment diverged at row %d", die, r)
			}
		}
	}
}

// TestYieldStreamMatchesFullPathReference proves the whole vectorized
// per-die pipeline — SampleInto into reused buffers, Dcrit-only light
// re-times, LeakModel leakage — end to end: on a pinned seed grid, the
// stream's per-die TuneResults and aggregated YieldStats are byte-identical
// to the sequential full-path loop, at one worker and at several.
func TestYieldStreamMatchesFullPathReference(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	dies := 16
	if !testing.Short() {
		dies = 40
	}
	const seed = 77
	opts := TuneOptions{GuardbandPct: 0.005}

	// Sequential reference over one dirty Instance, exactly the
	// pre-refactor worker shape.
	pl := an.Placement()
	m := Default()
	var inst *core.Instance
	limit := nom.DcritPS * (1 + 0.001)
	wantResults := make([]*TuneResult, dies)
	wantAcc := newYieldAccum()
	func() {
		o := opts
		o.setDefaults()
		for i := 0; i < dies; i++ {
			die := m.Sample(pl, proc, DieSeed(seed, i))
			r, err := referenceTuneOn(pl, al, &inst, nom, die, proc, o)
			if err != nil {
				t.Fatal(err)
			}
			wantResults[i] = r
			wantAcc.fold(r, limit)
		}
	}()
	wantStats := wantAcc.stats()
	if wantStats.TunedDies == 0 {
		t.Fatal("population tuned no dies; reference proves nothing")
	}

	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		next := 0
		got, err := YieldStream(context.Background(), an, al, nom, proc, m, dies, seed, o,
			func(die int, r *TuneResult) error {
				if die != next {
					t.Fatalf("workers=%d: emitted die %d, want %d", workers, die, next)
				}
				requireTuneResultEqual(t, die, wantResults[die], r)
				next++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if next != dies {
			t.Fatalf("workers=%d: %d emits, want %d", workers, next, dies)
		}
		if *got != *wantStats {
			t.Fatalf("workers=%d: stats diverged from the full-path reference:\nwant %+v\ngot  %+v",
				workers, wantStats, got)
		}
	}
}
