// Package cell provides the reduced standard-cell library used by the paper:
// inverters, buffers, AND, OR, NAND, NOR gates and D flip-flops at several
// drive strengths, mapped to a 45nm-class process.
//
// Every cell carries two per-bias-level tables, produced by the spice
// characterization at library construction time: the delay factor and the
// leakage factor at each voltage of the body-bias grid, both relative to the
// no-body-bias corner. These tables are exactly what the paper's
// pre-processing phase extracts ("for each of the gates in the library, we
// characterized its delay increase and average leakage power for different
// body bias voltages").
package cell

import (
	"fmt"
	"sync"

	"repro/internal/spice"
	"repro/internal/tech"
)

// Kind identifies the logic function of a cell.
type Kind uint8

// The cell kinds of the reduced library.
const (
	Inv Kind = iota
	Buf
	Nand
	Nor
	And
	Or
	Dff
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Inv:
		return "INV"
	case Buf:
		return "BUF"
	case Nand:
		return "NAND"
	case Nor:
		return "NOR"
	case And:
		return "AND"
	case Or:
		return "OR"
	case Dff:
		return "DFF"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Eval computes the combinational function of the kind on the given inputs.
// For Dff it returns the D input (the value that will be latched at the next
// clock edge); sequential behaviour is the simulator's concern.
func (k Kind) Eval(ins []bool) bool {
	switch k {
	case Inv:
		return !ins[0]
	case Buf, Dff:
		return ins[0]
	case Nand:
		for _, v := range ins {
			if !v {
				return true
			}
		}
		return false
	case And:
		for _, v := range ins {
			if !v {
				return false
			}
		}
		return true
	case Nor:
		for _, v := range ins {
			if v {
				return false
			}
		}
		return true
	case Or:
		for _, v := range ins {
			if v {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("cell: Eval on invalid kind %d", uint8(k)))
}

// Cell is one library element with its timing, power and layout parameters
// and the body-bias characterization tables.
type Cell struct {
	// Name is the library name, e.g. "NAND2_X2".
	Name string
	// Kind is the logic function.
	Kind Kind
	// NumInputs is the number of data inputs (1 for INV/BUF/DFF).
	NumInputs int
	// Drive is the drive strength (1, 2 or 4).
	Drive int
	// WidthSites is the placement width in sites.
	WidthSites int
	// IntrinsicPS is the unloaded propagation delay in picoseconds; for
	// DFF it is the clock-to-Q delay.
	IntrinsicPS float64
	// DriveResKOhm is the output drive resistance; delay grows by
	// DriveResKOhm * load(fF) picoseconds.
	DriveResKOhm float64
	// InputCapFF is the capacitance of one input pin in femtofarads.
	InputCapFF float64
	// LeakNW is the average leakage power at NBB, nominal corner, in
	// nanowatts.
	LeakNW float64
	// SetupPS is the setup time (DFF only).
	SetupPS float64

	// DelayFactor[j] is the delay at grid level j relative to NBB (<= 1
	// for forward bias).
	DelayFactor []float64
	// LeakFactor[j] is the leakage at grid level j relative to NBB (>= 1
	// for forward bias).
	LeakFactor []float64
}

// WidthUM returns the cell width in micrometres for the given library.
func (c *Cell) WidthUM(l *Library) float64 { return float64(c.WidthSites) * l.SiteWidthUM }

// DelayPS returns the loaded gate delay at NBB in picoseconds for an output
// load in femtofarads.
func (c *Cell) DelayPS(loadFF float64) float64 {
	return c.IntrinsicPS + c.DriveResKOhm*loadFF
}

// String implements fmt.Stringer.
func (c *Cell) String() string { return c.Name }

// Library is a characterized standard-cell library bound to a process and a
// body-bias grid.
type Library struct {
	Name string
	Proc *tech.Process
	Grid tech.BiasGrid
	// SiteWidthUM is the placement site width.
	SiteWidthUM float64
	// RowHeightUM is the standard-cell row height.
	RowHeightUM float64

	// byShape indexes the cells by [kind][inputs][drive] for Pick; the
	// one-input kinds sit at inputs 1.
	byShape [numKinds][maxInputs + 1][maxDrive + 1]*Cell
}

// spec describes one X1 cell; drive variants are derived from it.
type spec struct {
	kind    Kind
	inputs  int
	sites   int
	dps     float64 // intrinsic delay, ps
	rkohm   float64 // drive resistance, kOhm
	cinFF   float64
	leakNW  float64
	setupPS float64
	// stackMix weights the characterization curves of 1-, 2- and 3-deep
	// device stacks for this topology (delay and leakage state-average).
	stackMix [3]float64
}

var baseSpecs = []spec{
	{kind: Inv, inputs: 1, sites: 3, dps: 10, rkohm: 5.5, cinFF: 1.1, leakNW: 0.50, stackMix: [3]float64{1, 0, 0}},
	{kind: Buf, inputs: 1, sites: 4, dps: 18, rkohm: 4.0, cinFF: 1.0, leakNW: 0.85, stackMix: [3]float64{1, 0, 0}},
	{kind: Nand, inputs: 2, sites: 4, dps: 14, rkohm: 6.0, cinFF: 1.3, leakNW: 0.75, stackMix: [3]float64{0.5, 0.5, 0}},
	{kind: Nand, inputs: 3, sites: 5, dps: 18, rkohm: 6.8, cinFF: 1.5, leakNW: 1.00, stackMix: [3]float64{0.4, 0.4, 0.2}},
	{kind: Nor, inputs: 2, sites: 4, dps: 16, rkohm: 7.2, cinFF: 1.3, leakNW: 0.80, stackMix: [3]float64{0.5, 0.5, 0}},
	{kind: Nor, inputs: 3, sites: 6, dps: 22, rkohm: 8.6, cinFF: 1.5, leakNW: 1.10, stackMix: [3]float64{0.4, 0.4, 0.2}},
	{kind: And, inputs: 2, sites: 5, dps: 20, rkohm: 4.5, cinFF: 1.2, leakNW: 1.00, stackMix: [3]float64{0.65, 0.35, 0}},
	{kind: And, inputs: 3, sites: 6, dps: 24, rkohm: 4.8, cinFF: 1.4, leakNW: 1.25, stackMix: [3]float64{0.55, 0.3, 0.15}},
	{kind: Or, inputs: 2, sites: 5, dps: 22, rkohm: 4.6, cinFF: 1.2, leakNW: 1.05, stackMix: [3]float64{0.65, 0.35, 0}},
	{kind: Or, inputs: 3, sites: 7, dps: 26, rkohm: 5.0, cinFF: 1.4, leakNW: 1.30, stackMix: [3]float64{0.55, 0.3, 0.15}},
	{kind: Dff, inputs: 1, sites: 12, dps: 45, rkohm: 5.0, cinFF: 1.6, leakNW: 2.90, setupPS: 30, stackMix: [3]float64{0.8, 0.2, 0}},
}

// drives are the available drive strengths.
var drives = []int{1, 2, 4}

// maxInputs and maxDrive bound the shapes in baseSpecs and drives.
const maxInputs, maxDrive = 3, 4

// NewLibrary characterizes and returns the reduced 45nm library for the
// given process and bias grid.
func NewLibrary(p *tech.Process, grid tech.BiasGrid) (*Library, error) {
	l := &Library{
		Name:        "reduced45-" + p.Name,
		Proc:        p,
		Grid:        grid,
		SiteWidthUM: 0.19,
		RowHeightUM: 2.8,
	}

	// Characterize the three stack depths once; cells blend these curves
	// according to their pull-network topology and input-state average.
	var delayCurves, leakCurves [3][]float64
	for depth := 1; depth <= 3; depth++ {
		dc, err := spice.DelayFactorSweep(p, depth, 1, grid)
		if err != nil {
			return nil, fmt.Errorf("cell: characterizing delay of %d-stack: %w", depth, err)
		}
		lc, err := spice.LeakFactorSweep(p, depth, grid)
		if err != nil {
			return nil, fmt.Errorf("cell: characterizing leakage of %d-stack: %w", depth, err)
		}
		delayCurves[depth-1] = dc
		leakCurves[depth-1] = lc
	}

	n := grid.NumLevels()
	for _, s := range baseSpecs {
		df := make([]float64, n)
		lf := make([]float64, n)
		for j := 0; j < n; j++ {
			var d, lk float64
			for depth := 0; depth < 3; depth++ {
				w := s.stackMix[depth]
				if w == 0 {
					continue
				}
				d += w * delayCurves[depth][j]
				lk += w * leakCurves[depth][j]
			}
			df[j] = d
			lf[j] = lk
		}
		for _, drive := range drives {
			c := &Cell{
				Name:         cellName(s.kind, s.inputs, drive),
				Kind:         s.kind,
				NumInputs:    s.inputs,
				Drive:        drive,
				WidthSites:   s.sites + widthBump(drive),
				IntrinsicPS:  s.dps * intrinsicScale(drive),
				DriveResKOhm: s.rkohm / float64(drive),
				InputCapFF:   s.cinFF * float64(drive),
				LeakNW:       s.leakNW * float64(drive),
				SetupPS:      s.setupPS,
				DelayFactor:  df,
				LeakFactor:   lf,
			}
			l.byShape[s.kind][s.inputs][drive] = c
		}
	}
	return l, nil
}

func cellName(k Kind, inputs, drive int) string {
	if k == Inv || k == Buf || k == Dff {
		return fmt.Sprintf("%s_X%d", k, drive)
	}
	return fmt.Sprintf("%s%d_X%d", k, inputs, drive)
}

func widthBump(drive int) int {
	switch drive {
	case 2:
		return 1
	case 4:
		return 3
	}
	return 0
}

func intrinsicScale(drive int) float64 {
	switch drive {
	case 2:
		return 0.95
	case 4:
		return 0.90
	}
	return 1.0
}

// Pick returns the cell with the given function, input count and drive:
// the cell named cellName(k, inputs, drive), so INV, BUF and DFF ignore
// inputs. It does not allocate.
func (l *Library) Pick(k Kind, inputs, drive int) (*Cell, bool) {
	if k == Inv || k == Buf || k == Dff {
		inputs = 1
	}
	if k >= numKinds || uint(inputs) > maxInputs || uint(drive) > maxDrive {
		return nil, false
	}
	c := l.byShape[k][inputs][drive]
	return c, c != nil
}

var (
	defaultOnce sync.Once
	defaultLib  *Library
	defaultErr  error
)

// Default returns a process-wide shared library on the default 45nm process
// and 50mV/0.5V grid. It panics if characterization fails, which would be a
// programming error in the defaults.
func Default() *Library {
	defaultOnce.Do(func() {
		defaultLib, defaultErr = NewLibrary(tech.Default45nm(), tech.DefaultGrid())
	})
	if defaultErr != nil {
		panic("cell: default library characterization failed: " + defaultErr.Error())
	}
	return defaultLib
}
