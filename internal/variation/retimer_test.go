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
// assignments over the whole grid (and beyond it, where Voltage clamps) and
// for uniform biases.
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
			if err := rt.biasScale(scale, die, proc, assign, 0); err != nil {
				t.Fatal(err)
			}
			for g, got := range scale {
				want := proc.DelayFactorBias(grid.Voltage(assign[pl.RowOf[g]]), die.DVthV[g])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("biasScale gate %d: got %v, want %v", g, got, want)
				}
			}
		}
		for _, vbs := range []float64{-0.2, 0, 0.05, 0.3, 0.5, 0.8} {
			if err := rt.biasScale(scale, die, proc, nil, vbs); err != nil {
				t.Fatal(err)
			}
			for g, got := range scale {
				if want := proc.DelayFactorBias(vbs, die.DVthV[g]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("uniform biasScale(%v) gate %d: got %v, want %v", vbs, g, got, want)
				}
			}
		}
	}
}
