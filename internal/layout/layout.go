// Package layout models the physical implementation of row-clustered FBB
// described in the paper's section 3.3 and shown in its Figures 3 and 6:
//
//   - bias voltages are routed as vertical pairs (vbsn, vbsp) on the top
//     metal layer, one pair per non-NBB cluster, limited to two pairs;
//   - each biased row receives body-bias contact cells every ~50um (two
//     cells per window: one NMOS, one PMOS contact), consuming row space and
//     raising utilization by up to ~6%;
//   - adjacent rows assigned to different clusters need well separation,
//     the only source of die-area increase (kept below 5% in the paper).
package layout

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/place"
)

// Options parameterize the layout rules.
type Options struct {
	// ContactPitchUM is the maximum distance between body-bias contact
	// cells on a biased row (50um in the paper's technology).
	ContactPitchUM float64
	// ContactCellWidthUM is the width of one contact cell; two are
	// placed per pitch window (NMOS and PMOS contacts).
	ContactCellWidthUM float64
	// WellSepUM is the extra spacing between adjacent rows of different
	// clusters. The default 0.2um reflects the paper's 45nm SOI process
	// (Figure 1), where body wells are trench-isolated and differently
	// biased rows need only a minimal guard; bulk triple-well processes
	// would need more.
	WellSepUM float64
	// MaxBiasPairs is the routing limit on distributed bias pairs
	// (2 in the paper, hence at most 3 clusters including NBB).
	MaxBiasPairs int
}

func (o *Options) setDefaults() {
	if o.ContactPitchUM <= 0 {
		o.ContactPitchUM = 50
	}
	if o.ContactCellWidthUM <= 0 {
		o.ContactCellWidthUM = 1.5
	}
	if o.WellSepUM <= 0 {
		o.WellSepUM = 0.2
	}
	if o.MaxBiasPairs <= 0 {
		o.MaxBiasPairs = 2
	}
}

// Report is the physical-implementation assessment of an assignment.
type Report struct {
	// VbsLevels are the distinct non-NBB levels used (each needs a
	// routed pair); UsesNBB notes whether a no-bias cluster exists.
	VbsLevels []int
	UsesNBB   bool

	// ContactCellsPerRow counts inserted contact cells per row (zero on
	// NBB rows, whose well taps tie to the rails as in the base layout).
	ContactCellsPerRow []int
	// UtilBefore/UtilAfter are per-row utilizations without/with contact
	// cells; MaxUtilIncrease is the worst per-row increase (paper: ~6%).
	UtilBefore, UtilAfter []float64
	MaxUtilIncrease       float64
	// RowsOverflowed counts rows whose utilization would exceed 100%.
	RowsOverflowed int

	// WellSepBoundaries counts adjacent row pairs in different clusters.
	WellSepBoundaries int
	// BaseAreaUM2 and AreaUM2 are the die areas before/after well
	// separation; AreaOverheadPct is the increase (paper: < 5%).
	BaseAreaUM2, AreaUM2 float64
	AreaOverheadPct      float64

	// BiasRailTracks is the number of vertical top-metal tracks used
	// (two per pair).
	BiasRailTracks int
}

// Apply evaluates the layout implementation of a row-to-level assignment.
func Apply(pl *place.Placement, assign []int, opts Options) (*Report, error) {
	opts.setDefaults()
	if len(assign) != pl.NumRows {
		return nil, fmt.Errorf("layout: assignment length %d, want %d rows", len(assign), pl.NumRows)
	}

	r := &Report{
		ContactCellsPerRow: make([]int, pl.NumRows),
		UtilBefore:         make([]float64, pl.NumRows),
		UtilAfter:          make([]float64, pl.NumRows),
	}
	levelSet := map[int]struct{}{}
	for _, j := range assign {
		if j == 0 {
			r.UsesNBB = true
			continue
		}
		levelSet[j] = struct{}{}
	}
	for j := range levelSet {
		r.VbsLevels = append(r.VbsLevels, j)
	}
	sortInts(r.VbsLevels)
	if len(r.VbsLevels) > opts.MaxBiasPairs {
		return nil, fmt.Errorf("layout: %d bias pairs exceed the routable %d "+
			"(more contact cells per row would force a die-area increase)",
			len(r.VbsLevels), opts.MaxBiasPairs)
	}
	r.BiasRailTracks = 2 * len(r.VbsLevels)

	// Contact-cell insertion on biased rows.
	for row := 0; row < pl.NumRows; row++ {
		r.UtilBefore[row] = pl.RowUtilization(row)
		r.UtilAfter[row] = r.UtilBefore[row]
		if assign[row] == 0 {
			continue
		}
		windows := int(math.Ceil(pl.DieWidthUM / opts.ContactPitchUM))
		if windows < 1 {
			windows = 1
		}
		cells := 2 * windows // one NMOS + one PMOS contact per window
		r.ContactCellsPerRow[row] = cells
		extra := float64(cells) * opts.ContactCellWidthUM / pl.DieWidthUM
		r.UtilAfter[row] += extra
		if inc := r.UtilAfter[row] - r.UtilBefore[row]; inc > r.MaxUtilIncrease {
			r.MaxUtilIncrease = inc
		}
		if r.UtilAfter[row] > 1.0 {
			r.RowsOverflowed++
		}
	}

	// Well separation between adjacent different-cluster rows.
	for row := 0; row+1 < pl.NumRows; row++ {
		if assign[row] != assign[row+1] {
			r.WellSepBoundaries++
		}
	}
	r.BaseAreaUM2 = pl.DieWidthUM * pl.DieHeightUM
	r.AreaUM2 = pl.DieWidthUM * (pl.DieHeightUM + float64(r.WellSepBoundaries)*opts.WellSepUM)
	r.AreaOverheadPct = 100 * (r.AreaUM2 - r.BaseAreaUM2) / r.BaseAreaUM2
	return r, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ErrNoPlacement is returned by renderers on nil input.
var ErrNoPlacement = errors.New("layout: nil placement")
