package variation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/tech"
)

// yieldFixture places and times a named benchmark and builds the allocator
// a yield stream runs on.
func yieldFixture(t *testing.T, name string) (*sta.Analyzer, *core.Allocator, *sta.Timing) {
	t.Helper()
	an := newAnalyzer(t, placed(t, name))
	nom, err := an.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	al, err := core.NewAllocator(an.Placement(), nom)
	if err != nil {
		t.Fatal(err)
	}
	return an, al, nom
}

// TestYieldAfterNotBelowBefore pins the metamorphic law "tuning never
// loses yield": a die that meets timing before tuning must still meet it
// afterwards, even when the sensed slowdown plus guardband lies beyond the
// FBB compensation range and no allocation exists.
func TestYieldAfterNotBelowBefore(t *testing.T) {
	an, al, nom := yieldFixture(t, "c1355")
	proc := tech.Default45nm()
	const dies = 128
	// The 50% guardband lifts every reading beyond the compensation range.
	for _, guard := range []float64{0.005, 0.05, 0.2, 0.5} {
		t.Run(fmt.Sprintf("monitor/guard=%g", guard), func(t *testing.T) {
			opts := TuneOptions{GuardbandPct: guard}
			st, err := YieldStream(context.Background(), an, al, nom, proc, Default(), dies, 7, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("met %d before, %d after of %d; %d tuned, %d failed compensations",
				st.MetBefore, st.MetAfter, st.Dies, st.TunedDies, st.FailedCompensations)
			if st.MetAfter < st.MetBefore {
				t.Errorf("yield fell with tuning: %d dies met timing before, %d after (of %d)",
					st.MetBefore, st.MetAfter, st.Dies)
			}
		})
	}
}

// TestZeroVariationNeedsNoBias pins the metamorphic law "a die with no
// variation needs no bias": with every sigma zero and no guardband, each
// die is the nominal design, so nothing is tuned and every die meets
// timing.
func TestZeroVariationNeedsNoBias(t *testing.T) {
	proc := tech.Default45nm()
	for _, name := range []string{"c1355", "c5315"} {
		t.Run(name, func(t *testing.T) {
			an, al, nom := yieldFixture(t, name)
			const dies = 16
			st, err := YieldStream(context.Background(), an, al, nom, proc, Model{}, dies, 7,
				TuneOptions{GuardbandPct: 0}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.TunedDies != 0 || st.MetBefore != dies || st.MetAfter != dies || st.MeanBetaPct != 0 {
				t.Errorf("zero-variation population: %d tuned, met %d before and %d after of %d, mean beta %v%%; want 0 tuned, all met, beta 0",
					st.TunedDies, st.MetBefore, st.MetAfter, dies, st.MeanBetaPct)
			}
		})
	}
}
