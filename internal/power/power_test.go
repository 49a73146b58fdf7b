package power

import (
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
)

func placed(t *testing.T, name string) *place.Placement {
	t.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(d, l, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRowLeakageSumsToDesign(t *testing.T) {
	p := placed(t, "c1355")
	sum := 0.0
	for r := 0; r < p.NumRows; r++ {
		for _, g := range p.Rows[r] {
			sum += p.Design.Gates[g].Cell.LeakNW
		}
	}
	if total := DesignLeakageNW(p.Design); math.Abs(sum-total) > 1e-9 {
		t.Errorf("row leakage sum %f != design total %f", sum, total)
	}
}

func TestNBBOverheadIsZero(t *testing.T) {
	p := placed(t, "c1355")
	assign := make([]int, p.NumRows) // all level 0
	extra, err := AssignExtraLeakageNW(p, assign)
	if err != nil {
		t.Fatal(err)
	}
	if extra != 0 {
		t.Errorf("NBB overhead = %f, want 0", extra)
	}
	if total := DesignLeakageNW(p.Design) + extra; math.Abs(total-DesignLeakageNW(p.Design)) > 1e-9 {
		t.Error("NBB total != design leakage")
	}
}

func TestOverheadMonotoneInLevel(t *testing.T) {
	p := placed(t, "c3540")
	levels := p.Lib.Grid.NumLevels()
	for r := 0; r < p.NumRows; r++ {
		if len(p.Rows[r]) == 0 {
			continue
		}
		prev := -1.0
		for j := 0; j < levels; j++ {
			v := RowExtraLeakageNW(p, r, j)
			if v <= prev {
				t.Fatalf("row %d: overhead not increasing at level %d", r, j)
			}
			prev = v
		}
	}
}

func TestRowLeakTableMatchesDirect(t *testing.T) {
	p := placed(t, "c1355")
	tab := RowLeakTable(p)
	for i := range tab {
		for j := range tab[i] {
			if tab[i][j] != RowExtraLeakageNW(p, i, j) {
				t.Fatalf("table mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestAssignValidation(t *testing.T) {
	p := placed(t, "c1355")
	if _, err := AssignExtraLeakageNW(p, make([]int, 3)); err == nil {
		t.Error("wrong-length assignment accepted")
	}
	bad := make([]int, p.NumRows)
	bad[0] = 99
	if _, err := AssignExtraLeakageNW(p, bad); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestFullBiasRoughlyTwelveX(t *testing.T) {
	// Whole design at the top level should cost ~7-14x the NBB leakage
	// (Figure 1's 12.74x, diluted by stacked gates).
	p := placed(t, "c1355")
	top := p.Lib.Grid.NumLevels() - 1
	assign := make([]int, p.NumRows)
	for i := range assign {
		assign[i] = top
	}
	extra, err := AssignExtraLeakageNW(p, assign)
	if err != nil {
		t.Fatal(err)
	}
	ratio := (DesignLeakageNW(p.Design) + extra) / DesignLeakageNW(p.Design)
	if ratio < 7 || ratio > 14 {
		t.Errorf("full-FBB leakage ratio = %.2f, want within [7, 14]", ratio)
	}
}
