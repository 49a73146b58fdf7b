// Package bbgen models the central body-bias generator and its distribution
// network (the paper's Figure 2): one on-die generator produces bias
// voltages on a fixed resolution grid (50 mV assumed in the paper, 32 mV
// demonstrated by Tschanz et al. [8]) and distributes up to two (vbsn, vbsp)
// pairs to each circuit block, steered by the blocks' timing-sensor flags.
// Generation, buffering and routing cost 2-3% of die area at block-level
// granularity per [8].
package bbgen

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tech"
)

// Generator is a central body-bias generator.
type Generator struct {
	// Proc supplies Vdd and the delay model used to pick compensating
	// levels.
	Proc *tech.Process
	// Grid is the output voltage grid.
	Grid tech.BiasGrid
	// MaxPairsPerBlock is the distribution limit per block (2).
	MaxPairsPerBlock int
	// AreaOverheadPct is the die-area cost of generation, buffers and
	// routing (2-3% per [8]).
	AreaOverheadPct float64
}

// New returns a generator on the default 50 mV grid.
func New(p *tech.Process) *Generator {
	return &Generator{
		Proc:             p,
		Grid:             tech.DefaultGrid(),
		MaxPairsPerBlock: 2,
		AreaOverheadPct:  2.5,
	}
}

// Pair returns the NMOS and PMOS bias voltages for a grid level, as routed:
// vbsn = vbs and vbsp = Vdd - vbs.
func (g *Generator) Pair(level int) (vbsn, vbsp float64) {
	return g.Grid.Pair(g.Proc.VddV, level)
}

// BlockRequest is one block's bias demand: the distinct non-NBB levels its
// row clusters need, plus a sensed timing flag (the Tc of Figure 2).
type BlockRequest struct {
	Name   string
	Levels []int
	Alarm  bool // the block's timing sensor fired
}

// Line is one routed bias pair.
type Line struct {
	Block      string
	Level      int
	VbsN, VbsP float64
}

// Plan is the distribution produced for a set of blocks.
type Plan struct {
	Lines []Line
	// DistinctLevels is the number of different voltages the generator
	// must produce simultaneously.
	DistinctLevels int
}

// Distribute routes bias pairs to the requesting blocks, enforcing the
// per-block pair limit. Blocks whose alarm is clear receive nothing.
func (g *Generator) Distribute(blocks []BlockRequest) (*Plan, error) {
	plan := &Plan{}
	distinct := map[int]struct{}{}
	for _, b := range blocks {
		if !b.Alarm {
			continue
		}
		pairs := 0
		for _, lv := range b.Levels {
			if lv <= 0 {
				continue
			}
			if lv >= g.Grid.NumLevels() {
				return nil, fmt.Errorf("bbgen: block %s requests level %d beyond the grid", b.Name, lv)
			}
			pairs++
			if pairs > g.MaxPairsPerBlock {
				return nil, fmt.Errorf("bbgen: block %s requests %d pairs, limit %d",
					b.Name, pairs, g.MaxPairsPerBlock)
			}
			n, p := g.Pair(lv)
			plan.Lines = append(plan.Lines, Line{Block: b.Name, Level: lv, VbsN: n, VbsP: p})
			distinct[lv] = struct{}{}
		}
	}
	plan.DistinctLevels = len(distinct)
	return plan, nil
}

// ResolutionLoss quantifies what a coarser generator grid costs: for a
// uniform distribution of required slowdowns in (0, betaMax], it returns the
// average leakage-factor excess of quantizing up to the given grid versus an
// ideal continuous generator. Used by the resolution ablation bench.
func ResolutionLoss(p *tech.Process, grid tech.BiasGrid, betaMax float64, samples int) (float64, error) {
	if samples < 1 || betaMax <= 0 {
		return 0, errors.New("bbgen: bad sampling parameters")
	}
	total := 0.0
	counted := 0
	for i := 1; i <= samples; i++ {
		beta := betaMax * float64(i) / float64(samples)
		lv, ok := levelFor(p, grid, beta)
		if !ok {
			continue // beyond range at any resolution
		}
		// Ideal continuous vbs achieving exactly the needed speed-up.
		ideal := continuousVbsFor(p, beta)
		loss := p.LeakageFactor(grid.Voltage(lv)) - p.LeakageFactor(ideal)
		if loss < 0 {
			loss = 0
		}
		total += loss
		counted++
	}
	if counted == 0 {
		return 0, errors.New("bbgen: no compensatable samples")
	}
	return total / float64(counted), nil
}

// levelFor returns the lowest grid level whose speed-up compensates a
// uniform slowdown beta (delay factor <= 1/(1+beta)), or false when the
// slowdown exceeds the grid's range.
func levelFor(p *tech.Process, grid tech.BiasGrid, beta float64) (int, bool) {
	target := 1 / (1 + beta)
	for j := 0; j < grid.NumLevels(); j++ {
		if p.DelayFactor(grid.Voltage(j)) <= target {
			return j, true
		}
	}
	return 0, false
}

// continuousVbsFor finds the exact vbs compensating beta by bisection.
func continuousVbsFor(p *tech.Process, beta float64) float64 {
	target := 1 / (1 + beta)
	lo, hi := 0.0, p.MaxSafeVbs
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if p.DelayFactor(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Min(hi, p.MaxSafeVbs)
}
