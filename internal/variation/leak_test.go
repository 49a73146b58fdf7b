package variation

import (
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// TestLeakModelMatchesScalar is the differential harness of the batched
// leakage path: under random row assignments and no bias at all, the
// precomputed-table multiply-add pass must
// reproduce the scalar per-gate Die.LeakageNW / LeakageFactorBias loop bit
// for bit — including across die changes on one reused model.
func TestLeakModelMatchesScalar(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Default()
	lm := NewLeakModel(pl, proc)
	grid := pl.Lib.Grid
	rng := rand.New(rand.NewSource(11))

	for i := 0; i < 5; i++ {
		die := m.Sample(pl, proc, DieSeed(21, i))
		lm.SetDie(die)

		if want, got := die.LeakageNW(pl, proc, nil), lm.LeakageNW(nil); want != got {
			t.Fatalf("die %d unbiased: %v, want %v", i, got, want)
		}

		for trial := 0; trial < 8; trial++ {
			assign := make([]int, pl.NumRows)
			for r := range assign {
				assign[r] = rng.Intn(grid.NumLevels())
			}
			want := die.LeakageNW(pl, proc, assign)
			if got := lm.LeakageNW(assign); want != got {
				t.Fatalf("die %d assignment %v: %v, want %v", i, assign, got, want)
			}
		}
	}
}

// TestLeakModelTemperature: the tables carry the process temperature, so a
// model built on a derated process must match the scalar path at that
// temperature (the aging controller rebuilds per checkpoint).
func TestLeakModelTemperature(t *testing.T) {
	pl := placed(t, "c1355")
	base := tech.Default45nm()
	hot := base.WithTemperature(360)
	die := Default().Sample(pl, base, 3)
	lm := NewLeakModel(pl, hot)
	lm.SetDie(die)
	want := die.LeakageNW(pl, hot, nil)
	if got := lm.LeakageNW(nil); want != got {
		t.Fatalf("hot unbiased leakage %v, want %v", got, want)
	}
	if cold := die.LeakageNW(pl, base, nil); cold == want {
		t.Fatal("temperature derate had no effect; test is vacuous")
	}
}

// TestLeakModelCloneSharesTables: clones must agree with the parent while
// holding independent per-die state.
func TestLeakModelCloneSharesTables(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Default()
	lm := NewLeakModel(pl, proc)
	cl := lm.cloneInto(nil)
	d1 := m.Sample(pl, proc, 1)
	d2 := m.Sample(pl, proc, 2)
	lm.SetDie(d1)
	cl.SetDie(d2)
	if want, got := d1.LeakageNW(pl, proc, nil), lm.LeakageNW(nil); want != got {
		t.Fatalf("parent after clone SetDie: %v, want %v", got, want)
	}
	if want, got := d2.LeakageNW(pl, proc, nil), cl.LeakageNW(nil); want != got {
		t.Fatalf("clone: %v, want %v", got, want)
	}
}

// TestLeakModelAllocFree: after one warm-up die, SetDie and LeakageNW,
// biased or not, allocate nothing.
func TestLeakModelAllocFree(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	m := Default()
	lm := NewLeakModel(pl, proc)
	smp := NewSampler(pl, proc, m)
	die := smp.SampleInto(nil, 1)
	lm.SetDie(die)
	assign := make([]int, pl.NumRows)
	for r := range assign {
		assign[r] = r % pl.Lib.Grid.NumLevels()
	}
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		i++
		smp.SampleInto(die, DieSeed(1, i))
		lm.SetDie(die)
		_ = lm.LeakageNW(nil)
		_ = lm.LeakageNW(assign)
	}); n != 0 {
		t.Errorf("warmed-up LeakModel allocates %v/op, want 0", n)
	}
}
