// Basic light-timing flows: direct, through locals, and the legitimate
// full-Run counterparts that must stay silent.
package a

import (
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
)

func direct(an *sta.Analyzer, pl *place.Placement) {
	tm, _ := an.RunLight(nil, nil)
	core.NewAllocator(pl, tm) // want `light \(Dcrit-only\) re-time flows into repro/internal/core\.NewAllocator`
}

func throughLocal(rt *variation.Retimer, die *variation.Die, tn *variation.Tuner, proc *tech.Process) {
	tm, err := rt.TimeLight(die)
	if err != nil {
		return
	}
	alias := tm
	variation.TuneOn(tn, alias, die, proc, variation.TuneOptions{}) // want `light \(Dcrit-only\) re-time flows into repro/internal/variation\.TuneOn`
}

func biasVariants(rt *variation.Retimer, die *variation.Die, proc *tech.Process, pl *place.Placement) {
	a, _ := rt.TimeWithBiasLight(die, proc, nil)
	b, _ := rt.TimeUniformBiasLight(die, proc, 0)
	core.NewAllocator(pl, a) // want `light \(Dcrit-only\) re-time flows into`
	core.NewAllocator(pl, b) // want `light \(Dcrit-only\) re-time flows into`
}

func pathsRead(an *sta.Analyzer) int {
	tm, _ := an.RunLight(nil, nil)
	return len(tm.Paths) // want `reading Paths of a light \(Dcrit-only\) re-time`
}

func recoverFamily(rt *variation.Retimer, die *variation.Die, lm *variation.LeakModel) {
	nom, _ := rt.TimeLight(die)
	variation.RecoverLeakageWith(rt, lm, nom, die, variation.RBBOptions{}) // want `light \(Dcrit-only\) re-time flows into repro/internal/variation\.RecoverLeakageWith`
}

// fullRun is the legitimate path: a full re-time may feed every consumer.
func fullRun(an *sta.Analyzer, pl *place.Placement, tn *variation.Tuner, die *variation.Die, proc *tech.Process) int {
	tm, _ := an.Run(nil, nil)
	core.NewAllocator(pl, tm)
	variation.TuneOn(tn, tm, die, proc, variation.TuneOptions{})
	return len(tm.Paths)
}

// dcritOnly reads only scalars off the light result: the sanctioned use.
func dcritOnly(rt *variation.Retimer, die *variation.Die) float64 {
	tm, _ := rt.TimeLight(die)
	return tm.DcritPS
}

// errNotPoisoned: the error result of a light source must not taint.
func errNotPoisoned(an *sta.Analyzer, pl *place.Placement, full *sta.Timing) error {
	_, err := an.RunLight(nil, nil)
	if err != nil {
		return err
	}
	_, e := core.NewAllocator(pl, full)
	return e
}
