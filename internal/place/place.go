// Package place implements the row-based standard-cell placement the paper's
// methodology starts from ("we start with a placed design, which can be
// abstracted as a set of N rows").
//
// The placer orders gates by logic-cone traversal from the primary outputs,
// which clusters connected logic, then fills rows serpentine-fashion on a
// square die at a target utilization. Cone locality matters: it is what
// concentrates timing-critical gates in a few rows, the property the paper's
// row-level clustering exploits. Remaining row space is spread uniformly
// between cells, providing the spatial slack the body-bias contact cells
// need (section 3.3 of the paper).
//
// Refinement then swaps horizontally adjacent cells whenever that shrinks
// the wirelength of their nets. A row's x coordinates follow one
// recurrence, x(k+1) = x(k) + width(k) + gap, so a swap at positions i and
// i+1 cannot move any cell before i, and the cell now at i starts where
// the cell that left it did. From i+2 on, the first cell whose recomputed
// x equals its stored x ends the walk: every later x follows from that
// same value by the same recurrence over the same cells, so it already
// holds what re-spreading the whole row would write. A swap of neighbours
// nearly always stops right after the pair, so a refinement pass is linear
// in row length, and every coordinate is bit-identical to a whole-row
// re-spread (TestPlaceMatchesReference and FuzzPlace hold it to that
// reference).
package place

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Options control placement.
type Options struct {
	// UtilTarget is the row utilization target (default 0.72).
	UtilTarget float64
	// RefinePasses is the number of intra-row swap refinement passes
	// (default 2).
	RefinePasses int
	// ForceRows overrides the computed row count when > 0.
	ForceRows int
}

func (o *Options) setDefaults() {
	if o.UtilTarget <= 0 || o.UtilTarget > 1 {
		o.UtilTarget = 0.72
	}
	if o.RefinePasses < 0 {
		o.RefinePasses = 0
	} else if o.RefinePasses == 0 {
		o.RefinePasses = 2
	}
}

// Placement is a placed design.
type Placement struct {
	Design *netlist.Design
	Lib    *cell.Library

	// NumRows is N, the number of standard-cell rows.
	NumRows int
	// DieWidthUM and DieHeightUM are the core dimensions.
	DieWidthUM  float64
	DieHeightUM float64
	// Rows lists the gates of each row in left-to-right order.
	Rows [][]netlist.GateID
	// RowOf maps a gate to its row.
	RowOf []int
	// X is the left edge of each gate in micrometres; Y its row bottom.
	X, Y []float64

	rowUsedUM []float64
	fanouts   [][]netlist.GateID
	poOf      [][]int // gate -> indices of POs it drives

	centersOnce sync.Once
	centerX     []float64
	centerY     []float64
}

// Place places the design.
func Place(d *netlist.Design, lib *cell.Library, opts Options) (*Placement, error) {
	opts.setDefaults()
	n := len(d.Gates)
	if n == 0 {
		return nil, errors.New("place: empty design")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}

	totalW := 0.0
	for i := range d.Gates {
		totalW += d.Gates[i].Cell.WidthUM(lib)
	}

	// Square die: numRows rows of height H give die side numRows*H, and
	// capacity numRows * side * util must cover the total cell width.
	rows := opts.ForceRows
	if rows <= 0 {
		rows = int(math.Ceil(math.Sqrt(totalW / (lib.RowHeightUM * opts.UtilTarget))))
	}
	if rows < 1 {
		rows = 1
	}
	dieW := totalW / (float64(rows) * opts.UtilTarget)
	minW := lib.RowHeightUM // never narrower than one row is tall
	if dieW < minW {
		dieW = minW
	}

	p := &Placement{
		Design:      d,
		Lib:         lib,
		NumRows:     rows,
		DieWidthUM:  dieW,
		DieHeightUM: float64(rows) * lib.RowHeightUM,
		Rows:        make([][]netlist.GateID, rows),
		RowOf:       make([]int, n),
		X:           make([]float64, n),
		Y:           make([]float64, n),
		rowUsedUM:   make([]float64, rows),
		fanouts:     d.Fanouts(),
	}
	p.poOf = make([][]int, n)
	for i, po := range d.POs {
		if po.Sig.Kind == netlist.SigGate {
			p.poOf[po.Sig.Idx] = append(p.poOf[po.Sig.Idx], i)
		}
	}

	order := coneOrder(d)

	// Serpentine fill: capacity per row is dieW * util; odd rows are
	// reversed so consecutive gates in the order stay physically close
	// across row boundaries.
	capUM := dieW * opts.UtilTarget
	row := 0
	for _, g := range order {
		w := d.Gates[g].Cell.WidthUM(lib)
		if p.rowUsedUM[row]+w > capUM && row < rows-1 && len(p.Rows[row]) > 0 {
			row++
		}
		p.Rows[row] = append(p.Rows[row], g)
		p.rowUsedUM[row] += w
		p.RowOf[g] = row
	}
	for r := 1; r < rows; r += 2 {
		reverse(p.Rows[r])
	}

	p.spreadRows()
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if p.refinePass() == 0 {
			break
		}
	}
	return p, nil
}

// coneOrder returns the gates ordered by depth-first traversal of the
// transitive fanin cones of the primary outputs (then of any unreached
// gates), which groups logically related cells.
func coneOrder(d *netlist.Design) []netlist.GateID {
	n := len(d.Gates)
	visited := make([]bool, n)
	order := make([]netlist.GateID, 0, n)

	var visit func(root netlist.GateID)
	visit = func(root netlist.GateID) {
		// Iterative post-order DFS; depth can reach the gate count.
		type frame struct {
			g   netlist.GateID
			pin int
		}
		stack := []frame{{g: root}}
		visited[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			ins := d.Gates[f.g].Ins
			advanced := false
			for f.pin < len(ins) {
				in := ins[f.pin]
				f.pin++
				if in.Kind == netlist.SigGate && !visited[in.Idx] {
					visited[in.Idx] = true
					stack = append(stack, frame{g: in.Idx})
					advanced = true
					break
				}
			}
			if !advanced && f.pin >= len(ins) {
				order = append(order, f.g)
				stack = stack[:len(stack)-1]
			}
		}
	}
	for _, po := range d.POs {
		if po.Sig.Kind == netlist.SigGate && !visited[po.Sig.Idx] {
			visit(po.Sig.Idx)
		}
	}
	for g := 0; g < n; g++ {
		if !visited[g] {
			visit(netlist.GateID(g))
		}
	}
	return order
}

func reverse(s []netlist.GateID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// spreadRows assigns X/Y coordinates, distributing the free space of each
// row uniformly between cells.
func (p *Placement) spreadRows() {
	for r, gates := range p.Rows {
		gap := p.rowGap(r)
		x := gap
		for _, g := range gates {
			p.X[g] = x
			p.Y[g] = float64(r) * p.Lib.RowHeightUM
			x += p.Design.Gates[g].Cell.WidthUM(p.Lib) + gap
		}
	}
}

// refinePass swaps horizontally adjacent cells within rows when doing so
// shrinks the wirelength of their incident nets; it returns the number of
// swaps applied.
func (p *Placement) refinePass() int {
	swaps := 0
	for r := range p.Rows {
		gates := p.Rows[r]
		gap := p.rowGap(r)
		for i := 0; i+1 < len(gates); i++ {
			a, b := gates[i], gates[i+1]
			before := p.incidentHPWL(a) + p.incidentHPWL(b)
			gates[i], gates[i+1] = b, a
			p.respreadFrom(gates, i, gap)
			after := p.incidentHPWL(a) + p.incidentHPWL(b)
			if after+1e-9 < before {
				swaps++
			} else {
				gates[i], gates[i+1] = a, b
				p.respreadFrom(gates, i, gap)
			}
		}
	}
	return swaps
}

// rowGap is the uniform free space spreadRows leaves between the cells of
// row r and at its ends.
func (p *Placement) rowGap(r int) float64 {
	free := p.DieWidthUM - p.rowUsedUM[r]
	gap := free / float64(len(p.Rows[r])+1)
	if gap < 0 {
		gap = 0
	}
	return gap
}

// respreadFrom restores the spread X of a fully spread row whose cells at
// positions i and i+1 have just traded places. Position i starts where the
// cell that left it did (now position i+1's stored X), and the walk ends at
// the first cell from i+2 on whose x is unchanged; the package comment
// explains why that equals re-spreading the whole row.
func (p *Placement) respreadFrom(gates []netlist.GateID, i int, gap float64) {
	x := p.X[gates[i+1]]
	for k := i; k < len(gates); k++ {
		g := gates[k]
		if k > i+1 && p.X[g] == x {
			return
		}
		p.X[g] = x
		x += p.Design.Gates[g].Cell.WidthUM(p.Lib) + gap
	}
}

// incidentHPWL sums the half-perimeter wirelength of the nets touching g:
// its output net and each of its input nets.
func (p *Placement) incidentHPWL(g netlist.GateID) float64 {
	total := p.NetHPWL(g)
	for _, in := range p.Design.Gates[g].Ins {
		if in.Kind == netlist.SigGate {
			total += p.NetHPWL(in.Idx)
		}
	}
	return total
}

// GateCenter returns the centre coordinates of a gate.
func (p *Placement) GateCenter(g netlist.GateID) (x, y float64) {
	return p.X[g] + p.Design.Gates[g].Cell.WidthUM(p.Lib)/2,
		p.Y[g] + p.Lib.RowHeightUM/2
}

// Centers returns the centre coordinates of every gate as two parallel
// slices (structure-of-arrays), the layout per-gate spatial loops want:
// variation sampling evaluates correlated surfaces over all gate positions
// for every die, and the AoS GateCenter calls (a cell-width lookup and two
// divisions each) are pure per-die overhead. The slices are computed on
// first use, cached for the placement's lifetime, and shared — callers must
// not modify them. Safe for concurrent use; the placement coordinates are
// immutable after Place.
func (p *Placement) Centers() (xs, ys []float64) {
	p.centersOnce.Do(func() {
		n := len(p.Design.Gates)
		p.centerX = make([]float64, n)
		p.centerY = make([]float64, n)
		for g := 0; g < n; g++ {
			p.centerX[g], p.centerY[g] = p.GateCenter(netlist.GateID(g))
		}
	})
	return p.centerX, p.centerY
}

// NetHPWL returns the half-perimeter bounding-box wirelength of the net
// driven by gate g (driver, consumer pins, and the die edge for primary
// outputs).
func (p *Placement) NetHPWL(g netlist.GateID) float64 {
	x, y := p.GateCenter(g)
	minX, maxX, minY, maxY := x, x, y, y
	// The builtin min and max follow math.Min and math.Max's NaN and
	// signed-zero rules exactly, and compile inline.
	for _, f := range p.fanouts[g] {
		fx, fy := p.GateCenter(f)
		minX, maxX = min(minX, fx), max(maxX, fx)
		minY, maxY = min(minY, fy), max(maxY, fy)
	}
	if len(p.poOf[g]) > 0 {
		// POs pinned at the right die edge at the driver's height.
		minX, maxX = min(minX, p.DieWidthUM), max(maxX, p.DieWidthUM)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	return (maxX - minX) + (maxY - minY)
}

// RowUtilization returns the used fraction of row r.
func (p *Placement) RowUtilization(r int) float64 {
	return p.rowUsedUM[r] / p.DieWidthUM
}

// Fanouts exposes the design's fanout lists computed at placement time.
func (p *Placement) Fanouts() [][]netlist.GateID { return p.fanouts }

// POsOf returns the primary-output indices driven by gate g.
func (p *Placement) POsOf(g netlist.GateID) []int { return p.poOf[g] }

// String implements fmt.Stringer.
func (p *Placement) String() string {
	return fmt.Sprintf("%s: %d rows, die %.1fx%.1fum, %d gates",
		p.Design.Name, p.NumRows, p.DieWidthUM, p.DieHeightUM, len(p.Design.Gates))
}
