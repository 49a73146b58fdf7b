package variation

import (
	"errors"

	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Reverse body bias (RBB) support. The paper's compensation flow uses FBB to
// rescue slow dies; its discussion (sections 1-2, following Tschanz et al.
// [8]) notes the complementary knob: dies that come out *faster* than
// nominal waste leakage, and a reverse bias can raise their threshold back
// until the timing margin is consumed. This extension applies block-level
// RBB to fast dies, the granularity [8] used; the row-clustered machinery is
// unnecessary here because RBB is bounded by the single most-critical path.

// RBBResult reports a leakage-recovery attempt.
type RBBResult struct {
	// Applied is false when the die had no usable timing margin.
	Applied bool
	// VbsV is the (negative) body bias chosen.
	VbsV float64
	// DcritBeforePS/DcritAfterPS bracket the timing cost.
	DcritBeforePS, DcritAfterPS float64
	// LeakBeforeNW/LeakAfterNW bracket the leakage gain.
	LeakBeforeNW, LeakAfterNW float64
	// SavedPct is the leakage reduction in percent.
	SavedPct float64
}

// RBBOptions configure leakage recovery.
type RBBOptions struct {
	// StepV is the generator resolution on the reverse side (default
	// 50 mV, mirroring the forward grid).
	StepV float64
	// MaxV is the deepest reverse bias magnitude (default 0.5 V; beyond
	// that RBB loses effectiveness through BTBT leakage and worsened
	// short-channel effects, as the paper notes).
	MaxV float64
	// MarginPct keeps this fraction of Dcrit as safety margin
	// (default 0.002).
	MarginPct float64
}

func (o *RBBOptions) setDefaults() {
	if o.StepV <= 0 {
		o.StepV = 0.05
	}
	if o.MaxV <= 0 {
		o.MaxV = 0.5
	}
	if o.MarginPct <= 0 {
		o.MarginPct = 0.002
	}
}

// RecoverLeakageWith applies the deepest uniform reverse bias that keeps
// the die within nominal timing. The die's own variation is accounted for
// exactly: each gate's delay combines its threshold shift with the reverse
// bias through the process model. The bias-scan re-timings are the
// Retimer's Dcrit-only re-times into reused buffers, and the unbiased and
// recovered leakages are one exp pass plus multiply-add sweeps over lm's
// precomputed tables (lm must be built for rt's placement and the die's
// process; its per-die state is overwritten).
func RecoverLeakageWith(rt *Retimer, lm *LeakModel, nom *sta.Timing, die *Die, opts RBBOptions) (*RBBResult, error) {
	opts.setDefaults()
	if nom == nil || die == nil {
		return nil, errors.New("variation: nil timing or die")
	}
	proc := lm.Process()
	dieDcrit, err := rt.TimeLight(die)
	if err != nil {
		return nil, err
	}
	lm.SetDie(die)
	res := &RBBResult{
		DcritBeforePS: dieDcrit,
		DcritAfterPS:  dieDcrit,
		LeakBeforeNW:  lm.LeakageNW(nil),
	}
	res.LeakAfterNW = res.LeakBeforeNW
	limit := nom.DcritPS * (1 - opts.MarginPct)
	if dieDcrit >= limit {
		return res, nil // no margin to spend
	}

	// Deepest feasible reverse level, scanned from the shallow end (the
	// feasible set is contiguous: more RBB is strictly slower).
	best, bestDcrit := 0.0, dieDcrit
	for vbs := -opts.StepV; vbs >= -opts.MaxV-1e-9; vbs -= opts.StepV {
		dc, err := rt.TimeUniformBiasLight(die, proc, vbs)
		if err != nil {
			return nil, err
		}
		if dc > limit {
			break
		}
		best, bestDcrit = vbs, dc
	}
	if best == 0 {
		return res, nil
	}

	res.Applied = true
	res.VbsV = best
	res.DcritAfterPS = bestDcrit
	leak := lm.LeakageUniformNW(best)
	res.LeakAfterNW = leak
	res.SavedPct = 100 * (res.LeakBeforeNW - leak) / res.LeakBeforeNW
	return res, nil
}

// RecoveryStats aggregates RBB over a die population.
type RecoveryStats struct {
	Dies             int
	Recovered        int
	MeanSavedPct     float64 // over recovered dies
	MeanLeakBeforeNW float64
	MeanLeakAfterNW  float64
}

// RecoveryStudy applies RBB to every fast die of a population, sharing one
// Analyzer, one Retimer, one Sampler and one LeakModel across all dies and
// bias steps.
func RecoveryStudy(pl *place.Placement, proc *tech.Process, m Model, nDies int, seed int64, opts RBBOptions) (*RecoveryStats, error) {
	if nDies <= 0 {
		return nil, errors.New("variation: nDies must be positive")
	}
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return nil, err
	}
	nom, err := an.Run(nil, nil)
	if err != nil {
		return nil, err
	}
	rt := NewRetimer(an)
	smp := NewSampler(pl, proc, m)
	lm := NewLeakModel(pl, proc)
	var die *Die
	st := &RecoveryStats{Dies: nDies}
	for i := 0; i < nDies; i++ {
		die = smp.SampleInto(die, DieSeed(seed, i))
		r, err := RecoverLeakageWith(rt, lm, nom, die, opts)
		if err != nil {
			return nil, err
		}
		st.MeanLeakBeforeNW += r.LeakBeforeNW
		st.MeanLeakAfterNW += r.LeakAfterNW
		if r.Applied {
			st.Recovered++
			st.MeanSavedPct += r.SavedPct
		}
	}
	st.MeanLeakBeforeNW /= float64(nDies)
	st.MeanLeakAfterNW /= float64(nDies)
	if st.Recovered > 0 {
		st.MeanSavedPct /= float64(st.Recovered)
	}
	return st, nil
}
