package place

import (
	"math"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// This file keeps the placer's original refinement as the test oracle:
// refinePass re-spread the whole row after every trial swap and every
// swap-back (quadratic in row length), and NetHPWL grew its bounding box
// through a math.Min/math.Max closure. TestPlaceMatchesReference and
// FuzzPlace hold the production path to these bit for bit.

// refPlace places d exactly as Place did before incremental re-spreading:
// the same fill and initial spread (Place with refinement off), then the
// reference refinement passes.
func refPlace(d *netlist.Design, lib *cell.Library, opts Options) (*Placement, error) {
	fill := opts
	fill.RefinePasses = -1
	p, err := Place(d, lib, fill)
	if err != nil {
		return nil, err
	}
	opts.setDefaults()
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if p.refRefinePass() == 0 {
			break
		}
	}
	return p, nil
}

func (p *Placement) refRefinePass() int {
	swaps := 0
	for r := range p.Rows {
		gates := p.Rows[r]
		for i := 0; i+1 < len(gates); i++ {
			a, b := gates[i], gates[i+1]
			before := p.refIncidentHPWL(a) + p.refIncidentHPWL(b)
			gates[i], gates[i+1] = b, a
			p.refSpreadRow(r)
			after := p.refIncidentHPWL(a) + p.refIncidentHPWL(b)
			if after+1e-9 < before {
				swaps++
			} else {
				gates[i], gates[i+1] = a, b
				p.refSpreadRow(r)
			}
		}
	}
	return swaps
}

func (p *Placement) refSpreadRow(r int) {
	gates := p.Rows[r]
	free := p.DieWidthUM - p.rowUsedUM[r]
	gap := free / float64(len(gates)+1)
	if gap < 0 {
		gap = 0
	}
	x := gap
	for _, g := range gates {
		p.X[g] = x
		x += p.Design.Gates[g].Cell.WidthUM(p.Lib) + gap
	}
}

func (p *Placement) refIncidentHPWL(g netlist.GateID) float64 {
	total := p.refNetHPWL(g)
	for _, in := range p.Design.Gates[g].Ins {
		if in.Kind == netlist.SigGate {
			total += p.refNetHPWL(in.Idx)
		}
	}
	return total
}

func (p *Placement) refNetHPWL(g netlist.GateID) float64 {
	x, y := p.GateCenter(g)
	minX, maxX, minY, maxY := x, x, y, y
	grow := func(gx, gy float64) {
		minX = math.Min(minX, gx)
		maxX = math.Max(maxX, gx)
		minY = math.Min(minY, gy)
		maxY = math.Max(maxY, gy)
	}
	for _, f := range p.fanouts[g] {
		fx, fy := p.GateCenter(f)
		grow(fx, fy)
	}
	if len(p.poOf[g]) > 0 {
		// POs pinned at the right die edge at the driver's height.
		grow(p.DieWidthUM, y)
	}
	return (maxX - minX) + (maxY - minY)
}

func (p *Placement) refTotalHPWL() float64 {
	total := 0.0
	for g := range p.Design.Gates {
		total += p.refNetHPWL(netlist.GateID(g))
	}
	return total
}
