package variation

import "repro/internal/sta"

// InSituMonitor models the modified flip-flops of Mitra [3] (the paper's
// section 3.1): every endpoint is observed, so the measurement sees the true
// critical slowdown, quantized to the monitor's resolution. The tuning loops
// (TuneOn, YieldStream) sense every die through monitor.
type InSituMonitor struct {
	// ResolutionPct quantizes the reading upward (e.g. 0.01 for 1% steps);
	// zero means exact.
	ResolutionPct float64
}

// monitor is the sensor of the tuning loops: an in-situ monitor with 1%
// resolution.
var monitor = InSituMonitor{ResolutionPct: 0.01}

// MeasureBeta returns the estimated slowdown (0.05 = 5% slower) of a die
// against the nominal analysis nom. Only the two critical delays are read,
// so die may hold nothing but its DcritPS; the reading does not depend on
// dieSeed.
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
