package variation

import (
	"math/rand"

	"repro/internal/sta"
)

// Sensor estimates a die's slowdown coefficient beta relative to nominal
// timing. The paper's section 3.1 describes both styles implemented here.
//
// nom is the full nominal analysis. die is the die's own timing: the
// tuning loops (TuneOn, YieldStream) hand the InSituMonitor a Timing that
// holds only the die's DcritPS, and every other sensor a full Analyzer.Run
// of the die's delay scale. dieSeed identifies the die being measured
// (Die.Seed), so noisy sensors can derive an independent, deterministic
// noise stream per die.
type Sensor interface {
	// MeasureBeta returns the estimated slowdown (0.05 = 5% slower).
	MeasureBeta(nom, die *sta.Timing, dieSeed int64) float64
}

// ReplicaSensor models critical-path replicas placed around the block
// (Teodorescu et al. [5]): it observes the die delay of the R longest
// nominal paths, with multiplicative measurement noise. Replicas can miss
// the true critical path of a particular die, which is why tuning wants a
// guardband.
type ReplicaSensor struct {
	// Replicas is the number of replicated paths (default 8).
	Replicas int
	// NoisePct is the 1-sigma relative measurement error (e.g. 0.01).
	NoisePct float64
	// Seed makes the noise deterministic: together with the die seed it
	// selects the measurement-noise stream, so re-measuring one die
	// reproduces the same reading while different dies see independent
	// noise (physical measurement noise is uncorrelated across dies).
	Seed int64
}

// MeasureBeta implements Sensor.
func (s ReplicaSensor) MeasureBeta(nom, die *sta.Timing, dieSeed int64) float64 {
	r := s.Replicas
	if r <= 0 {
		r = 8
	}
	if r > len(nom.Paths) {
		r = len(nom.Paths)
	}
	rng := rand.New(rand.NewSource(noiseSeed(s.Seed, dieSeed)))
	worst := 0.0
	for i := 0; i < r; i++ {
		p := nom.Paths[i]
		nomDelay, dieDelay := 0.0, 0.0
		for _, g := range p.Gates {
			nomDelay += nom.GateDelayPS[g]
			dieDelay += die.GateDelayPS[g]
		}
		if nomDelay <= 0 {
			continue
		}
		ratio := dieDelay / nomDelay
		ratio *= 1 + rng.NormFloat64()*s.NoisePct
		if b := ratio - 1; b > worst {
			worst = b
		}
	}
	return worst
}

// noiseSeed mixes the sensor's own seed with the die's through the DieSeed
// splitmix64 finalizer: deterministic per (sensor, die) pair, decorrelated
// across dies. A fixed sensor seed alone would replay one noise stream on
// every die of a population, making the measurement error perfectly
// correlated across the lot.
func noiseSeed(sensorSeed, dieSeed int64) int64 {
	return splitmix64(uint64(sensorSeed) + uint64(dieSeed)*0x9e3779b97f4a7c15)
}

// InSituMonitor models the modified flip-flops of Mitra [3]: every endpoint
// is observed, so the measurement sees the true critical slowdown, quantized
// to the monitor's resolution.
type InSituMonitor struct {
	// ResolutionPct quantizes the reading upward (e.g. 0.01 for 1% steps);
	// zero means exact.
	ResolutionPct float64
}

// MeasureBeta implements Sensor.
func (s InSituMonitor) MeasureBeta(nom, die *sta.Timing, _ int64) float64 {
	beta := die.DcritPS/nom.DcritPS - 1
	if beta < 0 {
		return beta
	}
	if s.ResolutionPct > 0 {
		steps := beta / s.ResolutionPct
		whole := float64(int(steps))
		if steps > whole {
			whole++
		}
		beta = whole * s.ResolutionPct
	}
	return beta
}
