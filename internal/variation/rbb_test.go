package variation

import (
	"testing"

	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// rbbEngines builds the Retimer and LeakModel a leakage recovery runs on.
func rbbEngines(t *testing.T, pl *place.Placement, proc *tech.Process) (*Retimer, *LeakModel) {
	t.Helper()
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewRetimer(an), NewLeakModel(pl, proc)
}

func TestRecoverLeakageOnFastDie(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, lm := rbbEngines(t, pl, proc)
	m := Model{SigmaD2DmV: 25, SigmaSysmV: 0, SigmaRndmV: 0}
	for seed := int64(0); seed < 40; seed++ {
		die := m.Sample(pl, proc, seed)
		if die.DVthV[0] > -0.02 {
			continue // want a clearly fast die
		}
		r, err := RecoverLeakageWith(rt, lm, nom, die, RBBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Applied {
			t.Fatal("fast die had margin but RBB was not applied")
		}
		if r.VbsV >= 0 {
			t.Errorf("RBB voltage %f not negative", r.VbsV)
		}
		if r.LeakAfterNW >= r.LeakBeforeNW {
			t.Error("RBB did not reduce leakage")
		}
		if r.DcritAfterPS > nom.DcritPS {
			t.Errorf("RBB broke timing: %f > %f", r.DcritAfterPS, nom.DcritPS)
		}
		if r.DcritAfterPS <= r.DcritBeforePS {
			t.Error("RBB should slow the die down")
		}
		if r.SavedPct <= 0 || r.SavedPct >= 100 {
			t.Errorf("implausible savings %f%%", r.SavedPct)
		}
		return
	}
	t.Skip("no fast die found")
}

func TestRecoverLeakageSlowDieUntouched(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, lm := rbbEngines(t, pl, proc)
	m := Model{SigmaD2DmV: 25, SigmaSysmV: 0, SigmaRndmV: 0}
	for seed := int64(0); seed < 40; seed++ {
		die := m.Sample(pl, proc, seed)
		if die.DVthV[0] < 0.01 {
			continue
		}
		r, err := RecoverLeakageWith(rt, lm, nom, die, RBBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Applied {
			t.Error("slow die must not receive RBB")
		}
		if r.LeakAfterNW != r.LeakBeforeNW {
			t.Error("slow die leakage changed")
		}
		return
	}
	t.Skip("no slow die found")
}

func TestRecoveryStudy(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	st, err := RecoveryStudy(pl, proc, Default(), 40, 17, RBBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RBB recovery: %d/%d dies, mean saving %.1f%%, fleet leak %.0f -> %.0f nW",
		st.Recovered, st.Dies, st.MeanSavedPct, st.MeanLeakBeforeNW, st.MeanLeakAfterNW)
	if st.Recovered == 0 {
		t.Skip("no fast dies in population")
	}
	if st.MeanLeakAfterNW >= st.MeanLeakBeforeNW {
		t.Error("recovery did not reduce fleet leakage")
	}
	if _, err := RecoveryStudy(pl, proc, Default(), 0, 1, RBBOptions{}); err == nil {
		t.Error("zero dies accepted")
	}
}
