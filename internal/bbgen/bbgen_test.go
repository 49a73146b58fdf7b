package bbgen

import (
	"math"
	"testing"

	"repro/internal/tech"
)

func gen() *Generator { return New(tech.Default45nm()) }

func TestPairVoltages(t *testing.T) {
	g := gen()
	n, p := g.Pair(0)
	if n != 0 || math.Abs(p-0.95) > 1e-12 {
		t.Errorf("level 0 pair = %v,%v; want 0, 0.95", n, p)
	}
	n, p = g.Pair(10)
	if math.Abs(n-0.5) > 1e-12 || math.Abs(p-0.45) > 1e-12 {
		t.Errorf("level 10 pair = %v,%v; want 0.5, 0.45", n, p)
	}
}

func TestDistribute(t *testing.T) {
	g := gen()
	plan, err := g.Distribute([]BlockRequest{
		{Name: "b1", Levels: []int{3, 7}, Alarm: true},
		{Name: "b2", Levels: []int{3}, Alarm: true},
		{Name: "b3", Levels: []int{9}, Alarm: false}, // no alarm: ignored
		{Name: "b4", Levels: []int{0, 5}, Alarm: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lines) != 4 { // 3+7, 3, 5 (level 0 routes nothing)
		t.Errorf("lines = %d, want 4", len(plan.Lines))
	}
	if plan.DistinctLevels != 3 { // {3, 7, 5}
		t.Errorf("distinct levels = %d, want 3", plan.DistinctLevels)
	}
	for _, l := range plan.Lines {
		if math.Abs(l.VbsN+l.VbsP-g.Proc.VddV) > 1e-12 {
			t.Errorf("pair %v does not straddle Vdd", l)
		}
	}
}

func TestDistributeLimits(t *testing.T) {
	g := gen()
	if _, err := g.Distribute([]BlockRequest{
		{Name: "greedy", Levels: []int{1, 2, 3}, Alarm: true},
	}); err == nil {
		t.Error("three pairs for one block accepted")
	}
	if _, err := g.Distribute([]BlockRequest{
		{Name: "oob", Levels: []int{99}, Alarm: true},
	}); err == nil {
		t.Error("out-of-grid level accepted")
	}
}

func TestResolutionLoss(t *testing.T) {
	p := tech.Default45nm()
	fine := tech.BiasGrid{StepV: 0.025, MaxV: 0.5}
	def := tech.DefaultGrid()
	coarse := tech.BiasGrid{StepV: 0.1, MaxV: 0.5}
	lf, err := ResolutionLoss(p, fine, 0.12, 200)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := ResolutionLoss(p, def, 0.12, 200)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := ResolutionLoss(p, coarse, 0.12, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("avg leakage-factor excess: 25mV=%.3f 50mV=%.3f 100mV=%.3f", lf, ld, lc)
	if !(lf < ld && ld < lc) {
		t.Errorf("coarser grids must lose more: %f %f %f", lf, ld, lc)
	}
	if _, err := ResolutionLoss(p, def, -1, 10); err == nil {
		t.Error("bad betaMax accepted")
	}
}
