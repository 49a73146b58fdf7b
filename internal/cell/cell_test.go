package cell

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tech"
)

func TestLibraryConstruction(t *testing.T) {
	l := Default()
	if len(l.Cells()) != len(baseSpecs)*len(drives) {
		t.Fatalf("cell count = %d, want %d", len(l.Cells()), len(baseSpecs)*len(drives))
	}
	seen := map[string]bool{}
	for _, c := range l.Cells() {
		if seen[c.Name] {
			t.Errorf("duplicate cell name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestCellNames(t *testing.T) {
	l := Default()
	for _, name := range []string{"INV_X1", "INV_X2", "INV_X4", "NAND2_X1", "NAND3_X4",
		"NOR2_X2", "AND2_X1", "AND3_X2", "OR2_X1", "OR3_X4", "BUF_X2", "DFF_X1"} {
		if _, ok := l.Cell(name); !ok {
			t.Errorf("missing cell %q", name)
		}
	}
	if _, ok := l.Cell("XOR2_X1"); ok {
		t.Error("library should not contain XOR cells (reduced library)")
	}
}

func TestFactorTablesShape(t *testing.T) {
	l := Default()
	n := l.Grid.NumLevels()
	for _, c := range l.Cells() {
		if len(c.DelayFactor) != n || len(c.LeakFactor) != n {
			t.Fatalf("%s: factor table lengths %d/%d, want %d",
				c.Name, len(c.DelayFactor), len(c.LeakFactor), n)
		}
		if math.Abs(c.DelayFactor[0]-1) > 1e-9 || math.Abs(c.LeakFactor[0]-1) > 1e-9 {
			t.Errorf("%s: NBB factors = %v, %v; want 1, 1", c.Name, c.DelayFactor[0], c.LeakFactor[0])
		}
		for j := 1; j < n; j++ {
			if c.DelayFactor[j] >= c.DelayFactor[j-1] {
				t.Errorf("%s: delay factor not decreasing at level %d", c.Name, j)
			}
			if c.LeakFactor[j] <= c.LeakFactor[j-1] {
				t.Errorf("%s: leak factor not increasing at level %d", c.Name, j)
			}
		}
		// Full-FBB anchors: ~17-18% delay reduction (1/1.21) and
		// roughly an order of magnitude more leakage, diluted a little
		// by stacking.
		top := n - 1
		if c.DelayFactor[top] < 0.78 || c.DelayFactor[top] > 0.88 {
			t.Errorf("%s: delay factor at 0.5V = %v, want in [0.78, 0.88]", c.Name, c.DelayFactor[top])
		}
		if c.LeakFactor[top] < 7 || c.LeakFactor[top] > 14 {
			t.Errorf("%s: leak factor at 0.5V = %v, want in [7, 14]", c.Name, c.LeakFactor[top])
		}
	}
}

func TestDriveVariants(t *testing.T) {
	l := Default()
	x1 := l.MustCell("NAND2_X1")
	x2 := l.MustCell("NAND2_X2")
	x4 := l.MustCell("NAND2_X4")
	if !(x4.DriveResKOhm < x2.DriveResKOhm && x2.DriveResKOhm < x1.DriveResKOhm) {
		t.Error("drive resistance must fall with drive strength")
	}
	if !(x4.InputCapFF > x2.InputCapFF && x2.InputCapFF > x1.InputCapFF) {
		t.Error("input cap must grow with drive strength")
	}
	if !(x4.LeakNW > x2.LeakNW && x2.LeakNW > x1.LeakNW) {
		t.Error("leakage must grow with drive strength")
	}
	if !(x4.WidthSites > x1.WidthSites) {
		t.Error("width must grow with drive strength")
	}
}

func TestDelayPS(t *testing.T) {
	l := Default()
	c := l.MustCell("INV_X1")
	unloaded := c.DelayPS(0)
	loaded := c.DelayPS(10)
	if unloaded != c.IntrinsicPS {
		t.Errorf("unloaded delay = %v, want intrinsic %v", unloaded, c.IntrinsicPS)
	}
	if loaded <= unloaded {
		t.Error("loaded delay must exceed unloaded delay")
	}
}

func TestEvalTruthTables(t *testing.T) {
	cases := []struct {
		k    Kind
		ins  []bool
		want bool
	}{
		{Inv, []bool{false}, true},
		{Inv, []bool{true}, false},
		{Buf, []bool{true}, true},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{true, false}, true},
		{Nand, []bool{true, true, true}, false},
		{Nand, []bool{true, true, false}, true},
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{false, true}, false},
		{Or, []bool{false, true}, true},
		{Or, []bool{false, false, false}, false},
		{Dff, []bool{true}, true},
	}
	for _, c := range cases {
		if got := c.k.Eval(c.ins); got != c.want {
			t.Errorf("%v%v = %v, want %v", c.k, c.ins, got, c.want)
		}
	}
}

func TestStackedCellsLessBiasSensitiveLeakage(t *testing.T) {
	// A NAND3 (deep stacks in its state average) responds a bit less to
	// FBB leakage-wise than an inverter; its curve must not exceed the
	// inverter's by more than noise.
	l := Default()
	inv := l.MustCell("INV_X1")
	nand3 := l.MustCell("NAND3_X1")
	top := l.Grid.NumLevels() - 1
	if nand3.LeakFactor[top] > inv.LeakFactor[top]*1.02 {
		t.Errorf("NAND3 leak factor %v should not exceed INV %v",
			nand3.LeakFactor[top], inv.LeakFactor[top])
	}
}

func TestDffParameters(t *testing.T) {
	l := Default()
	d := l.MustCell("DFF_X1")
	if d.SetupPS <= 0 {
		t.Error("DFF must have a setup time")
	}
	if d.IntrinsicPS <= 0 {
		t.Error("DFF must have a clk-to-q delay")
	}
	if d.WidthSites <= l.MustCell("INV_X1").WidthSites {
		t.Error("DFF should be wider than an inverter")
	}
}

func TestKindString(t *testing.T) {
	for k := Inv; k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("invalid kind should stringify to Kind(n)")
	}
}

func TestWidthUM(t *testing.T) {
	l := Default()
	c := l.MustCell("INV_X1")
	want := float64(c.WidthSites) * l.SiteWidthUM
	if got := c.WidthUM(l); got != want {
		t.Errorf("WidthUM = %v, want %v", got, want)
	}
}

func TestCustomGridLibrary(t *testing.T) {
	// A 100mV grid has 6 levels; tables must follow.
	p := tech.Default45nm()
	g := tech.BiasGrid{StepV: 0.1, MaxV: 0.5}
	l, err := NewLibrary(p, g)
	if err != nil {
		t.Fatal(err)
	}
	c := l.MustCell("INV_X1")
	if len(c.DelayFactor) != 6 {
		t.Errorf("table length = %d, want 6", len(c.DelayFactor))
	}
}

func TestPick(t *testing.T) {
	l := Default()
	c, ok := l.Pick(Nand, 2, 4)
	if !ok || c.Name != "NAND2_X4" {
		t.Errorf("Pick(Nand,2,4) = %v, %v", c, ok)
	}
	if _, ok := l.Pick(Nand, 5, 1); ok {
		t.Error("Pick should fail for a 5-input NAND")
	}
}

// TestPickMatchesName: the shape table answers exactly like a lookup by
// the cell's name, in range and out of it, without allocating.
func TestPickMatchesName(t *testing.T) {
	l := Default()
	for k := Kind(0); k <= numKinds; k++ {
		for inputs := -1; inputs <= 5; inputs++ {
			for drive := -1; drive <= 8; drive++ {
				got, gotOK := l.Pick(k, inputs, drive)
				want, wantOK := l.Cell(cellName(k, inputs, drive))
				if got != want || gotOK != wantOK {
					t.Errorf("Pick(%v, %d, %d) = %v, %v; Cell(%q) = %v, %v",
						k, inputs, drive, got, gotOK, cellName(k, inputs, drive), want, wantOK)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { l.Pick(Nor, 3, 2) }); n != 0 {
		t.Errorf("Pick allocates %v times per call", n)
	}
}

// TestSpiceDelayMatchesAnalyticModel measures the gap between the two
// delay models the flow mixes: the allocator prices bias with each cell's
// SPICE-characterized DelayFactor[j], while die-time re-timing uses the
// analytic Proc.DelayFactor(Grid.Voltage(j)). Over every cell and level the
// relative gap DelayFactor[j]/Proc.DelayFactor - 1 peaks at +0.00425 (SPICE
// slower), at the top level (0.5 V) for the single-stack cells (INV, BUF);
// its most negative value is -0.000073, for the 3-stack cells at 0.1 V. The
// pins are those extremes plus a margin of 0.00025 and 0.000027.
func TestSpiceDelayMatchesAnalyticModel(t *testing.T) {
	const minGap, maxGap = -0.0001, 0.0045
	l := Default()
	worst, worstCell, worstLevel := 0.0, "", 0
	for _, c := range l.Cells() {
		for j, df := range c.DelayFactor {
			gap := df/l.Proc.DelayFactor(l.Grid.Voltage(j)) - 1
			if gap < minGap || gap > maxGap {
				t.Errorf("%s level %d (%.3f V): SPICE/analytic delay gap %+.6f outside [%v, %v]",
					c.Name, j, l.Grid.Voltage(j), gap, minGap, maxGap)
			}
			if gap > worst {
				worst, worstCell, worstLevel = gap, c.Name, j
			}
		}
	}
	if worst < maxGap-0.0005 {
		t.Errorf("largest gap %+.6f (%s): the models moved closer, re-measure and tighten the pin", worst, worstCell)
	}
	t.Logf("largest gap %+.6f: %s at level %d (%.3f V)", worst, worstCell, worstLevel, l.Grid.Voltage(worstLevel))
}
