package place

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// samePlacement reports the first difference between got (the production
// path) and want (refPlace): every coordinate, row list and wirelength must
// match to the bit.
func samePlacement(got, want *Placement) error {
	if got.NumRows != want.NumRows ||
		math.Float64bits(got.DieWidthUM) != math.Float64bits(want.DieWidthUM) ||
		math.Float64bits(got.DieHeightUM) != math.Float64bits(want.DieHeightUM) {
		return fmt.Errorf("die: %d rows %vx%v, want %d rows %vx%v",
			got.NumRows, got.DieWidthUM, got.DieHeightUM, want.NumRows, want.DieWidthUM, want.DieHeightUM)
	}
	for r := range want.Rows {
		if !slices.Equal(got.Rows[r], want.Rows[r]) {
			return fmt.Errorf("row %d: %v, want %v", r, got.Rows[r], want.Rows[r])
		}
	}
	if !slices.Equal(got.RowOf, want.RowOf) {
		return fmt.Errorf("RowOf differs")
	}
	for g := range want.X {
		if math.Float64bits(got.X[g]) != math.Float64bits(want.X[g]) ||
			math.Float64bits(got.Y[g]) != math.Float64bits(want.Y[g]) {
			return fmt.Errorf("gate %d at (%v, %v), want (%v, %v)", g, got.X[g], got.Y[g], want.X[g], want.Y[g])
		}
		h, wh := got.NetHPWL(netlist.GateID(g)), want.refNetHPWL(netlist.GateID(g))
		if math.Float64bits(h) != math.Float64bits(wh) {
			return fmt.Errorf("gate %d NetHPWL %v, want %v", g, h, wh)
		}
	}
	if h, wh := got.TotalHPWL(), want.refTotalHPWL(); math.Float64bits(h) != math.Float64bits(wh) {
		return fmt.Errorf("TotalHPWL %v, want %v", h, wh)
	}
	return nil
}

// TestPlaceMatchesReference holds incremental re-spreading and the builtin
// min/max wirelength to the original whole-row refinement bit for bit, on
// every built-in × ForceRows {0, 1, 3, 7} × RefinePasses {-1, 1, 2, 4} ×
// UtilTarget {default, 0.5, 0.95}. The quadratic oracle bounds the grid on
// the slow built-ins: adder128 and c6288 skip ForceRows 1 (their longest
// rows), industrial1 runs automatic rows only, and industrial2/3 run only
// their default placement (and not at all under -short).
func TestPlaceMatchesReference(t *testing.T) {
	lib := cell.Default()
	for _, bm := range gen.All() {
		forceRows := []int{0, 1, 3, 7}
		passes := []int{-1, 1, 2, 4}
		utils := []float64{0, 0.5, 0.95}
		switch bm.Name {
		case "adder128", "c6288":
			forceRows = []int{0, 3, 7}
		case "industrial1":
			forceRows = []int{0}
		case "industrial2", "industrial3":
			if testing.Short() {
				continue
			}
			forceRows, passes, utils = []int{0}, []int{2}, []float64{0}
		}
		d := bm.Build(lib)
		for _, fr := range forceRows {
			for _, np := range passes {
				for _, util := range utils {
					opts := Options{ForceRows: fr, RefinePasses: np, UtilTarget: util}
					got, err := Place(d, lib, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refPlace(d, lib, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := samePlacement(got, want); err != nil {
						t.Errorf("%s %+v: %v", bm.Name, opts, err)
					}
				}
			}
		}
	}
}

// FuzzPlace: any netlist ParseBench accepts places identically under the
// production path and the reference, at fuzzed row counts, refinement
// passes and utilization targets.
func FuzzPlace(f *testing.F) {
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", int16(0), int8(0), uint8(0))
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nOUTPUT(n)\nn = NOR(a, b)\nm = NOT(n)\nz = XOR(m, c)\n", int16(1), int8(4), uint8(95))
	f.Add("INPUT(d)\nOUTPUT(q)\nq = DFF(n)\nn = NOT(q)\n", int16(3), int8(-1), uint8(50))
	var c1355 strings.Builder
	lib := cell.Default()
	d, err := gen.Build("c1355", lib)
	if err != nil {
		f.Fatal(err)
	}
	if err := netlist.WriteBench(&c1355, d); err != nil {
		f.Fatal(err)
	}
	f.Add(c1355.String(), int16(1), int8(2), uint8(72))
	f.Fuzz(func(t *testing.T, text string, forceRows int16, passes int8, util uint8) {
		d, err := netlist.ParseBench(strings.NewReader(text), "fuzz", lib)
		if err != nil {
			return
		}
		// fbbd accepts forceRows up to 4096; keep the passes small so one
		// input stays cheap under the quadratic oracle.
		opts := Options{
			ForceRows:    int(forceRows) % 4097,
			RefinePasses: int(passes) % 5,
			UtilTarget:   float64(util) / 100,
		}
		got, gotErr := Place(d, lib, opts)
		want, wantErr := refPlace(d, lib, opts)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("errors: %v, want %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if err := samePlacement(got, want); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	})
}
