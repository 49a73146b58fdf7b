// Package sta is the static timing analysis engine of the flow, standing in
// for the commercial STA tool the paper uses (PrimeTime). It computes loaded
// gate delays (input caps plus placement-derived wire capacitance), arrival
// and required times over the combinational graph, and extracts the paper's
// timing-constraint set: the longest path through each cell ([11]), pruned
// to a unique path set Pi.
package sta

import (
	"repro/internal/netlist"
	"repro/internal/place"
)

// Options configure the analysis.
type Options struct {
	// DelayScale optionally scales each gate's delay (per-gate process
	// variation); length must equal the gate count when non-nil.
	DelayScale []float64
}

// The load model of every analysis: wire capacitance per micrometre of
// estimated net length, and the capacitive load on each primary output.
const (
	wireCapPerUMfF = 0.20
	poLoadFF       = 2.0
)

// Path is one extracted timing path: the chain of gates from a startpoint
// (PI or flip-flop output) to an endpoint (PO, flip-flop D input, or an
// unloaded output).
type Path struct {
	// Gates is the ordered gate chain.
	Gates []netlist.GateID
	// DelayPS is the nominal path delay including endpoint setup.
	DelayPS float64
	// SlackPS is Dcrit - DelayPS (non-negative at the nominal corner).
	SlackPS float64
}

// Timing is the result of a full analysis: the corner's per-gate delays,
// arrivals and tails, its critical delay, and the extracted path set. Analyze
// and Analyzer.Run are its only producers, so a Timing they return always
// carries its path set; a Dcrit-only re-time is a TimingBatch
// (Analyzer.RunLightBatch), which has no path set to misread.
type Timing struct {
	Pl   *place.Placement
	Opts Options

	// GateDelayPS is the loaded delay of every gate at the analysis
	// corner (clk-to-q for flip-flops).
	GateDelayPS []float64
	// ArrPS is the output arrival time of every gate.
	ArrPS []float64
	// TailPS is the longest delay from the gate output to any endpoint
	// (including endpoint setup).
	TailPS []float64
	// DcritPS is the critical path delay.
	DcritPS float64
	// Paths is the pruned unique set Pi of longest paths through each
	// cell, sorted by descending delay.
	Paths []Path

	// Reusable per-run state for Analyzer.Run: predecessor/successor
	// choices, the path-chain walk and storage buffers, and the
	// deduplication hash table. A Timing that has been through a Run
	// carries its capacity to the next Run on the same buffer.
	bestPred, bestSucc []int32
	pathOf             []int32
	backBuf            []netlist.GateID
	arena              []netlist.GateID
	buckets            []int32
	bnext              []int32
}

// Analyze runs STA on a placed design. It is the one-shot form of Analyzer:
// callers re-timing the same placement under many DelayScale vectors should
// construct one Analyzer and call Run with a reused buffer instead.
func Analyze(pl *place.Placement, opts Options) (*Timing, error) {
	an, err := NewAnalyzer(pl, opts)
	if err != nil {
		return nil, err
	}
	return an.Run(opts.DelayScale, nil)
}

// CriticalPath returns the longest extracted path.
func (tm *Timing) CriticalPath() Path {
	if len(tm.Paths) == 0 {
		return Path{}
	}
	return tm.Paths[0]
}
