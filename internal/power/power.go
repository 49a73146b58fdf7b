// Package power computes leakage power for designs under row-level body-bias
// assignments. The paper's objective is the leakage *spent* to speed a
// design up, i.e. the increase over the no-body-bias corner; this package
// provides both absolute and overhead views.
package power

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/place"
)

// DesignLeakageNW returns the total NBB leakage of the design in nanowatts.
func DesignLeakageNW(d *netlist.Design) float64 {
	total := 0.0
	for i := range d.Gates {
		total += d.Gates[i].Cell.LeakNW
	}
	return total
}

// RowExtraLeakageNW returns the leakage increase of row `row` when biased at
// grid level j, relative to NBB: sum over the row's gates of
// leak * (LeakFactor[j] - 1). This is the L_ij coefficient of the paper's
// ILP objective (expressed as overhead so that NBB rows cost zero).
func RowExtraLeakageNW(pl *place.Placement, row, j int) float64 {
	total := 0.0
	for _, g := range pl.Rows[row] {
		c := pl.Design.Gates[g].Cell
		total += c.LeakNW * (c.LeakFactor[j] - 1)
	}
	return total
}

// RowLeakTable precomputes the full L[i][j] overhead matrix (rows x levels).
func RowLeakTable(pl *place.Placement) [][]float64 {
	levels := pl.Lib.Grid.NumLevels()
	table := make([][]float64, pl.NumRows)
	for i := range table {
		table[i] = make([]float64, levels)
		for j := 0; j < levels; j++ {
			table[i][j] = RowExtraLeakageNW(pl, i, j)
		}
	}
	return table
}

// AssignExtraLeakageNW returns the total leakage overhead of a row-to-level
// assignment (len(assign) == NumRows).
func AssignExtraLeakageNW(pl *place.Placement, assign []int) (float64, error) {
	if len(assign) != pl.NumRows {
		return 0, fmt.Errorf("power: assignment length %d, want %d rows", len(assign), pl.NumRows)
	}
	total := 0.0
	for i, j := range assign {
		if j < 0 || j >= pl.Lib.Grid.NumLevels() {
			return 0, fmt.Errorf("power: row %d assigned invalid level %d", i, j)
		}
		total += RowExtraLeakageNW(pl, i, j)
	}
	return total, nil
}
