package place

import (
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
)

func placed(t *testing.T, name string) *Placement {
	t.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Place(d, l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEveryGatePlacedExactlyOnce(t *testing.T) {
	p := placed(t, "c1355")
	seen := make([]int, len(p.Design.Gates))
	for r, row := range p.Rows {
		for _, g := range row {
			seen[g]++
			if p.RowOf[g] != r {
				t.Errorf("gate %d: RowOf=%d but found in row %d", g, p.RowOf[g], r)
			}
		}
	}
	for g, c := range seen {
		if c != 1 {
			t.Errorf("gate %d placed %d times", g, c)
		}
	}
}

func TestNoOverlapsWithinRows(t *testing.T) {
	p := placed(t, "c3540")
	for _, row := range p.Rows {
		for i := 0; i+1 < len(row); i++ {
			a, b := row[i], row[i+1]
			endA := p.X[a] + p.Design.Gates[a].Cell.WidthUM(p.Lib)
			if endA > p.X[b]+1e-9 {
				t.Fatalf("gates %d and %d overlap: %f > %f", a, b, endA, p.X[b])
			}
		}
	}
}

func TestRowsFitDie(t *testing.T) {
	p := placed(t, "c5315")
	for r := range p.Rows {
		if p.RowUsedUM(r) > p.DieWidthUM+1e-9 {
			t.Errorf("row %d overflows die: %f > %f", r, p.RowUsedUM(r), p.DieWidthUM)
		}
		u := p.RowUtilization(r)
		if u < 0 || u > 1 {
			t.Errorf("row %d utilization %f out of range", r, u)
		}
	}
	// The die is square-ish by construction.
	aspect := p.DieWidthUM / p.DieHeightUM
	if aspect < 0.5 || aspect > 2.0 {
		t.Errorf("die aspect ratio %f not square-ish", aspect)
	}
}

func TestRowCountsTrackPaper(t *testing.T) {
	l := cell.Default()
	for _, bm := range gen.All() {
		d := bm.Build(l)
		p, err := Place(d, l, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dev := float64(p.NumRows-bm.PaperRows) / float64(bm.PaperRows)
		t.Logf("%-12s rows=%3d paper=%3d (%+.0f%%)", bm.Name, p.NumRows, bm.PaperRows, dev*100)
		if dev < -0.35 || dev > 0.35 {
			t.Errorf("%s: %d rows deviates >35%% from paper's %d", bm.Name, p.NumRows, bm.PaperRows)
		}
	}
}

func TestSpatialSlackOnEveryRow(t *testing.T) {
	// The paper's contact-cell insertion relies on free space in each
	// row; target utilization leaves >= ~20% slack.
	p := placed(t, "c7552")
	for r := range p.Rows {
		if len(p.Rows[r]) == 0 {
			continue
		}
		if u := p.RowUtilization(r); u > 0.90 {
			t.Errorf("row %d utilization %.2f leaves no room for contact cells", r, u)
		}
	}
}

func TestRefinementImprovesOrKeepsHPWL(t *testing.T) {
	l := cell.Default()
	d, err := gen.Build("c1355", l)
	if err != nil {
		t.Fatal(err)
	}
	// RefinePasses -1 normalizes to 0 (disabled).
	noRefine, err := Place(d, l, Options{RefinePasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Place(d, l, Options{RefinePasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	if refined.TotalHPWL() > noRefine.TotalHPWL()+1e-6 {
		t.Errorf("refinement increased HPWL: %f -> %f", noRefine.TotalHPWL(), refined.TotalHPWL())
	}
}

func TestConeLocality(t *testing.T) {
	// Connected gates should sit close: the average driver-consumer row
	// distance must be a small fraction of the row count.
	p := placed(t, "c6288")
	totalDist, edges := 0.0, 0
	for g := range p.Design.Gates {
		for _, f := range p.Fanouts()[netlist.GateID(g)] {
			totalDist += math.Abs(float64(p.RowOf[g] - p.RowOf[f]))
			edges++
		}
	}
	avg := totalDist / float64(edges)
	if avg > float64(p.NumRows)/4 {
		t.Errorf("average fanout row distance %.2f too large for %d rows", avg, p.NumRows)
	}
}

func TestForceRows(t *testing.T) {
	l := cell.Default()
	d, err := gen.Build("c1355", l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Place(d, l, Options{ForceRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRows != 7 {
		t.Errorf("forced rows = %d, want 7", p.NumRows)
	}
}

func TestEmptyDesignRejected(t *testing.T) {
	l := cell.Default()
	if _, err := Place(&netlist.Design{Name: "empty"}, l, Options{}); err == nil {
		t.Error("empty design accepted")
	}
}

func TestNetHPWLPositiveForMultiPinNets(t *testing.T) {
	p := placed(t, "c1355")
	anyPositive := false
	for g := range p.Design.Gates {
		h := p.NetHPWL(netlist.GateID(g))
		if h < 0 {
			t.Fatalf("negative HPWL for gate %d", g)
		}
		if h > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("all nets have zero wirelength")
	}
}

func TestCentersMatchGateCenter(t *testing.T) {
	p := placed(t, "c1355")
	xs, ys := p.Centers()
	if len(xs) != len(p.Design.Gates) || len(ys) != len(p.Design.Gates) {
		t.Fatalf("Centers length %d/%d, want %d", len(xs), len(ys), len(p.Design.Gates))
	}
	for g := range p.Design.Gates {
		x, y := p.GateCenter(netlist.GateID(g))
		if xs[g] != x || ys[g] != y {
			t.Fatalf("gate %d: Centers (%v,%v), GateCenter (%v,%v)", g, xs[g], ys[g], x, y)
		}
	}
	// The cache is computed once and shared.
	xs2, ys2 := p.Centers()
	if &xs2[0] != &xs[0] || &ys2[0] != &ys[0] {
		t.Error("Centers rebuilt the cached slices")
	}
	if n := testing.AllocsPerRun(10, func() { p.Centers() }); n != 0 {
		t.Errorf("cached Centers allocates %v/op, want 0", n)
	}
}

// TotalHPWL sums the wirelength over all gate-driven nets.
func (p *Placement) TotalHPWL() float64 {
	total := 0.0
	for g := range p.Design.Gates {
		total += p.NetHPWL(netlist.GateID(g))
	}
	return total
}

// RowUsedUM returns the occupied width of row r in micrometres.
func (p *Placement) RowUsedUM(r int) float64 { return p.rowUsedUM[r] }
