package variation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// TestBiasScaleMatchesDelayFactorBias: the re-timer's per-gate scales, with
// the body-effect shift hoisted out of the gate loop, must equal
// tech.Process.DelayFactorBias gate by gate, bit for bit, for row
// assignments over the whole grid (and beyond it, where Voltage clamps). An
// assignment that is nil or not one level per row is an error.
func TestBiasScaleMatchesDelayFactorBias(t *testing.T) {
	pl := placed(t, "c1355")
	rt := NewRetimer(newAnalyzer(t, pl))
	grid := pl.Lib.Grid
	rng := rand.New(rand.NewSource(4))
	for _, proc := range []*tech.Process{tech.Default45nm(), tech.Default45nm().WithTemperature(370)} {
		die := Default().Sample(pl, proc, 11)
		scale := make([]float64, len(die.DVthV))
		for trial := 0; trial < 8; trial++ {
			assign := make([]int, pl.NumRows)
			for r := range assign {
				assign[r] = rng.Intn(grid.NumLevels()+2) - 1
			}
			if err := rt.biasScale(scale, die, proc, assign); err != nil {
				t.Fatal(err)
			}
			for g, got := range scale {
				want := proc.DelayFactorBias(grid.Voltage(assign[pl.RowOf[g]]), die.DVthV[g])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("biasScale gate %d: got %v, want %v", g, got, want)
				}
			}
		}
		for _, assign := range [][]int{nil, make([]int, pl.NumRows-1)} {
			if err := rt.biasScale(scale, die, proc, assign); err == nil {
				t.Fatalf("biasScale accepted a %d-row assignment on %d rows", len(assign), pl.NumRows)
			}
		}
	}
}
