package netlist

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cell"
)

func lib() *cell.Library { return cell.Default() }

// buildToy returns y = NAND(a, NOT(b)) with a registered copy q.
func buildToy(t *testing.T) *Design {
	t.Helper()
	b := NewBuilder("toy", lib())
	a, bb := b.PI("a"), b.PI("b")
	nb := b.Not(bb)
	y := b.Nand(a, nb)
	q := b.DFF(y)
	b.Output("y", y)
	b.Output("q", q)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuilderAndValidate(t *testing.T) {
	d := buildToy(t)
	if d.NumGates() != 3 {
		t.Errorf("gates = %d, want 3", d.NumGates())
	}
	if d.NumDFFs() != 1 {
		t.Errorf("FFs = %d, want 1", d.NumDFFs())
	}
	st := d.Stats()
	if st.PIs != 2 || st.POs != 2 || st.ByKind[cell.Nand] != 1 {
		t.Errorf("bad stats: %+v", st)
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	d := buildToy(t)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[GateID]int)
	for i, g := range order {
		pos[g] = i
	}
	for i := range d.Gates {
		if d.Gates[i].IsDFF() {
			continue
		}
		for _, in := range d.Gates[i].Ins {
			if in.Kind == SigGate && pos[in.Idx] > pos[GateID(i)] {
				t.Errorf("gate %d evaluated before its driver %d", i, in.Idx)
			}
		}
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	b := NewBuilder("cyc", lib())
	a := b.PI("a")
	g1 := b.Nand(a, a) // placeholder, rewired below
	g2 := b.Nand(g1, a)
	b.d.Gates[g1.Idx].Ins[1] = g2 // create g1 <-> g2 cycle
	b.Output("y", g2)
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
}

func TestSequentialLoopAllowed(t *testing.T) {
	// A toggle flip-flop: q = DFF(NOT(q)) is a legal sequential loop.
	b := NewBuilder("tff", lib())
	q := b.DFF(Const(false))
	nq := b.Not(q)
	b.d.Gates[q.Idx].Ins[0] = nq
	b.Output("q", q)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulator(d)
	if err != nil {
		t.Fatal(err)
	}
	var seq []bool
	for i := 0; i < 4; i++ {
		s.Step()
		v, err := s.PO("q")
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, v)
	}
	// After each step the flop toggles: starting false, reads false then
	// true alternating on the output *after* the step's eval.
	want := []bool{false, true, false, true}
	for i := range want {
		// Outputs observed after Step i reflect pre-step state; just
		// check that it toggles every cycle.
		if i > 0 && seq[i] == seq[i-1] {
			t.Fatalf("toggle FF did not toggle: %v", seq)
		}
		_ = want
	}
}

func TestSimulatorCombinational(t *testing.T) {
	d := buildToy(t)
	s, err := NewSimulator(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, y bool
	}{
		{false, false, true},
		{true, false, false}, // y = NAND(a, NOT(b)) = !(a && !b)
		{true, true, true},
		{false, true, true},
	}
	for _, c := range cases {
		s.SetPI(0, c.a)
		s.SetPI(1, c.b)
		s.Eval()
		got, err := s.PO("y")
		if err != nil {
			t.Fatal(err)
		}
		if got != c.y {
			t.Errorf("a=%v b=%v: y=%v, want %v", c.a, c.b, got, c.y)
		}
	}
}

func TestSimulatorSequential(t *testing.T) {
	d := buildToy(t)
	s, err := NewSimulator(d)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPI(0, true)
	s.SetPI(1, false)
	s.Step() // latches y=false
	s.Eval()
	q, _ := s.PO("q")
	if q != false {
		t.Errorf("q after first clock = %v, want false", q)
	}
	s.SetPI(0, false)
	s.Step() // y=true latched
	s.Eval()
	if q, _ = s.PO("q"); q != true {
		t.Errorf("q after second clock = %v, want true", q)
	}
	s.ResetState()
	s.Eval()
	if q, _ = s.PO("q"); q != false {
		t.Error("ResetState did not clear flop")
	}
}

func TestXorExpansion(t *testing.T) {
	b := NewBuilder("xor", lib())
	x, y := b.PI("x"), b.PI("y")
	b.Output("z", b.Xor(x, y))
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumGates() != 4 {
		t.Errorf("XOR2 should cost 4 NAND2, got %d gates", d.NumGates())
	}
	s, _ := NewSimulator(d)
	for _, c := range []struct{ x, y, z bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false},
	} {
		s.SetPI(0, c.x)
		s.SetPI(1, c.y)
		s.Eval()
		if got, _ := s.PO("z"); got != c.z {
			t.Errorf("xor(%v,%v) = %v, want %v", c.x, c.y, got, c.z)
		}
	}
}

func TestWideGateFolding(t *testing.T) {
	b := NewBuilder("wide", lib())
	ins := b.PIBus("i", 9)
	b.Output("z", b.And(ins...))
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSimulator(d)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		want := true
		for i := 0; i < 9; i++ {
			v := rng.Intn(2) == 1
			s.SetPI(i, v)
			want = want && v
		}
		s.Eval()
		if got, _ := s.PO("z"); got != want {
			t.Fatalf("AND9 wrong on trial %d", trial)
		}
	}
	// Every gate respects the library's input limits.
	for i := range d.Gates {
		if len(d.Gates[i].Ins) > 3 {
			t.Errorf("gate %d has %d inputs", i, len(d.Gates[i].Ins))
		}
	}
}

func TestRippleAdder(t *testing.T) {
	b := NewBuilder("add4", lib())
	a := b.PIBus("a", 4)
	x := b.PIBus("b", 4)
	sum, cout := b.RippleAdder(a, x, Const(false))
	b.OutputBus("s", sum)
	b.Output("cout", cout)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSimulator(d)
	for av := uint64(0); av < 16; av++ {
		for bv := uint64(0); bv < 16; bv++ {
			if err := s.SetUintInputs("a", 4, av); err != nil {
				t.Fatal(err)
			}
			if err := s.SetUintInputs("b", 4, bv); err != nil {
				t.Fatal(err)
			}
			s.Eval()
			got, err := s.UintOutputs("s", 4)
			if err != nil {
				t.Fatal(err)
			}
			co, _ := s.PO("cout")
			if co {
				got |= 16
			}
			if got != av+bv {
				t.Fatalf("%d+%d = %d, want %d", av, bv, got, av+bv)
			}
		}
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder("mux", lib())
	sel, x, y := b.PI("s"), b.PI("x"), b.PI("y")
	b.Output("z", b.Mux(sel, x, y))
	d, _ := b.Build()
	s, _ := NewSimulator(d)
	for _, c := range []struct{ sel, x, y, z bool }{
		{false, true, false, true}, {true, true, false, false},
		{false, false, true, false}, {true, false, true, true},
	} {
		s.SetPI(0, c.sel)
		s.SetPI(1, c.x)
		s.SetPI(2, c.y)
		s.Eval()
		if got, _ := s.PO("z"); got != c.z {
			t.Errorf("mux(%v;%v,%v) = %v, want %v", c.sel, c.x, c.y, got, c.z)
		}
	}
}

func TestSizeDrives(t *testing.T) {
	b := NewBuilder("fan", lib())
	a := b.PI("a")
	src := b.Not(a)
	for i := 0; i < 10; i++ {
		b.Output(strings.Repeat("o", i+1), b.Not(src))
	}
	b.SizeDrives()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Gates[src.Idx].Cell.Drive; got != 4 {
		t.Errorf("10-fanout gate drive = X%d, want X4", got)
	}
}

func TestFanoutCounts(t *testing.T) {
	d := buildToy(t)
	counts := d.FanoutCounts()
	// Gate 1 (the NAND) drives the DFF and the PO "y".
	if counts[1] != 2 {
		t.Errorf("NAND fanout = %d, want 2", counts[1])
	}
}

func TestValidateCatchesBadSignals(t *testing.T) {
	b := NewBuilder("bad", lib())
	a := b.PI("a")
	g := b.Not(a)
	b.d.Gates[g.Idx].Ins[0] = Signal{Kind: SigPI, Idx: 99}
	b.Output("y", g)
	if _, err := b.Build(); err == nil {
		t.Error("out-of-range PI index not caught")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	orig := buildToy(t)
	var sb strings.Builder
	if err := WriteBench(&sb, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBench(strings.NewReader(sb.String()), "toy2", lib())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, sb.String())
	}
	// Functional equivalence on all input combinations (combinational
	// output y only; the reparsed design may have buffer aliases).
	s1, _ := NewSimulator(orig)
	s2, _ := NewSimulator(parsed)
	for a := 0; a < 2; a++ {
		for bv := 0; bv < 2; bv++ {
			s1.SetPIByName("a", a == 1)
			s1.SetPIByName("b", bv == 1)
			s2.SetPIByName("a", a == 1)
			s2.SetPIByName("b", bv == 1)
			s1.Eval()
			s2.Eval()
			v1, _ := s1.PO("y")
			v2, _ := s2.PO("y")
			if v1 != v2 {
				t.Errorf("a=%d b=%d: original %v, reparsed %v", a, bv, v1, v2)
			}
		}
	}
}

func TestParseBenchHandlesXorAndOrder(t *testing.T) {
	// Out-of-order definitions and an XOR must parse.
	src := `
# tiny circuit
INPUT(a)
INPUT(b)
OUTPUT(z)
z = XOR(t, b)
t = NOT(a)
`
	d, err := ParseBench(strings.NewReader(src), "tiny", lib())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSimulator(d)
	for a := 0; a < 2; a++ {
		for bv := 0; bv < 2; bv++ {
			s.SetPIByName("a", a == 1)
			s.SetPIByName("b", bv == 1)
			s.Eval()
			want := (a == 0) != (bv == 1)
			if got, _ := s.PO("z"); got != want {
				t.Errorf("a=%d b=%d: z=%v want %v", a, bv, got, want)
			}
		}
	}
}

func TestParseBenchSequential(t *testing.T) {
	src := `
INPUT(d)
OUTPUT(q)
q = DFF(n)
n = NOT(q)
`
	d, err := ParseBench(strings.NewReader(src), "seq", lib())
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDFFs() != 1 {
		t.Errorf("FFs = %d, want 1", d.NumDFFs())
	}
}

func TestParseBenchErrors(t *testing.T) {
	bad := []string{
		"z = FROB(a)\nINPUT(a)\nOUTPUT(z)",
		"INPUT(a)\nOUTPUT(z)\nz = NAND(a, missing)",
		"INPUT(a)\nOUTPUT(z)\nz NAND(a)",
	}
	for i, src := range bad {
		if _, err := ParseBench(strings.NewReader(src), "bad", lib()); err == nil {
			t.Errorf("case %d: bad bench accepted", i)
		}
	}
}

// TestParseBenchRejectsArity: a gate arity the library cannot build is a
// line-numbered error, never a panic, and no input is silently dropped.
func TestParseBenchRejectsArity(t *testing.T) {
	for _, gate := range []string{"NAND(a)", "NOR(a)", "NOT(a, b)", "BUF(a, b)", "DFF(a, b)"} {
		src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = " + gate + "\n"
		_, err := ParseBench(strings.NewReader(src), "arity", lib())
		if err == nil || !strings.Contains(err.Error(), "bench line 4:") {
			t.Errorf("%s: err %v, want a bench line 4 error", gate, err)
		}
	}
}

// TestParseBenchRejectsRedrivenNet: a gate output naming a primary input
// or an already driven net is a line-numbered error. The reference reader
// accepted both first cases, keeping the last driver and a phantom gate.
func TestParseBenchRejectsRedrivenNet(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\ny = NOR(a, b)\n",
			`bench line 5: net "y" already driven by line 4`},
		{"INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = NOT(b)\ny = NAND(a, b)\n",
			`bench line 4: net "a" already driven by INPUT`},
		{"OUTPUT(y)\ny = NOT(a)\nINPUT(b)\nINPUT(a)\ny = DFF(b)\n",
			`bench line 5: net "y" already driven by line 2`},
		{"OUTPUT(y)\ny = NOT(b)\nINPUT(b)\nINPUT(y)\n",
			`bench line 2: net "y" already driven by INPUT`},
		{"INPUT(a)\nOUTPUT(q)\nq = DFF(n)\nn = NOT(q)\nq = BUFF(a)\n",
			`bench line 5: net "q" already driven by line 3`},
	} {
		_, err := ParseBench(strings.NewReader(tc.src), "redrive", lib())
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: err %v, want %s", tc.src, err, tc.want)
		}
	}
	for i, src := range []string{
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\ny = NOR(a, b)\n",
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = NOT(b)\ny = NAND(a, b)\n",
	} {
		if _, err := parseBenchRef(strings.NewReader(src), "redrive", lib()); err != nil {
			t.Errorf("case %d: the reference reader now rejects it too: %v", i, err)
		}
	}
	// Declaring a port twice drives nothing twice.
	src := "INPUT(a)\nINPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n"
	d, err := ParseBench(strings.NewReader(src), "ports", lib())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PINames) != 1 || len(d.POs) != 2 {
		t.Errorf("got %d PIs, %d POs; want 1, 2", len(d.PINames), len(d.POs))
	}
}

// TestParseBenchLineLimit: a line that fills the 1 MB scanner buffer with
// its newline is read; one byte more is bufio.ErrTooLong, as it was for
// the reference reader, whose buffer did not grow.
func TestParseBenchLineLimit(t *testing.T) {
	for _, n := range []int{maxBenchLine - 1, maxBenchLine, maxBenchLine + 1} {
		for _, nl := range []string{"\n", ""} {
			src := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n#" + strings.Repeat("x", n-1) + nl
			d, err := ParseBench(strings.NewReader(src), "long", lib())
			ref, refErr := parseBenchRef(strings.NewReader(src), "long", lib())
			if !errors.Is(err, refErr) || !reflect.DeepEqual(d, ref) {
				t.Errorf("line of %d bytes, newline %q: got %v, reference %v", n, nl, err, refErr)
			}
			if wantErr := n >= maxBenchLine; (err != nil) != wantErr ||
				(wantErr && !errors.Is(err, bufio.ErrTooLong)) {
				t.Errorf("line of %d bytes, newline %q: err %v", n, nl, err)
			}
		}
	}
}

// TestWriteBenchPortNames: gate nets never take a port's name, each PO
// alias is written once, and port names .bench cannot express are errors.
func TestWriteBenchPortNames(t *testing.T) {
	for _, src := range []string{
		"INPUT(a)\nINPUT(b)\nOUTPUT(g1)\nOUTPUT(z)\ng1 = NAND(a, b)\nz = NOT(g1)\n",
		"INPUT(a)\nINPUT(g0)\nINPUT(g_0)\nOUTPUT(y)\nOUTPUT(y)\ny = NAND(a, g0, g_0)\n",
	} {
		d, err := ParseBench(strings.NewReader(src), "names", lib())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := WriteBench(&sb, d); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBench(strings.NewReader(sb.String()), "names", lib())
		if err != nil {
			t.Fatalf("written design does not reparse: %v\n%s", err, sb.String())
		}
		if !reflect.DeepEqual(back.PINames, d.PINames) || len(back.POs) != len(d.POs) {
			t.Errorf("round trip changed the ports:\n%s", sb.String())
		}
		s1, _ := NewSimulator(d)
		s2, _ := NewSimulator(back)
		for v := 0; v < 1<<len(d.PINames); v++ {
			for i, in := range d.PINames {
				s1.SetPIByName(in, v>>i&1 == 1)
				s2.SetPIByName(in, v>>i&1 == 1)
			}
			s1.Eval()
			s2.Eval()
			for _, po := range d.POs {
				v1, _ := s1.PO(po.Name)
				v2, _ := s2.PO(po.Name)
				if v1 != v2 {
					t.Errorf("inputs %b: output %s differs after the round trip:\n%s", v, po.Name, sb.String())
				}
			}
		}
	}

	b := NewBuilder("clash", lib())
	a, x := b.PI("a"), b.PI("x")
	g := b.Not(a)
	b.Output("a", g)
	if err := WriteBench(io.Discard, b.MustBuild()); err == nil {
		t.Error("a PO named like a PI it is not driven by was written")
	}
	b = NewBuilder("clash", lib())
	a, x = b.PI("a"), b.PI("x")
	b.Output("y", b.Not(a))
	b.Output("y", b.Not(x))
	if err := WriteBench(io.Discard, b.MustBuild()); err == nil {
		t.Error("two POs named y with different drivers were written")
	}
}

// TestBuilderGateInputsDoNotAlias: gate inputs share slab blocks, each
// behind a capacity cap, so appending to one gate's inputs cannot write
// into another's.
func TestBuilderGateInputsDoNotAlias(t *testing.T) {
	d := buildToy(t)
	for i := range d.Gates {
		if g := &d.Gates[i]; cap(g.Ins) != len(g.Ins) {
			t.Errorf("gate %d: cap(Ins) = %d, len = %d", i, cap(g.Ins), len(g.Ins))
		}
	}
}

// FuzzParseBench: uploaded netlists reach ParseBench unfiltered, so no
// input may panic it. It must answer like the reference reader, with the
// same Design or the same error text, except that it rejects a net with
// two drivers. A design it accepts must validate and survive a write/parse
// round trip.
func FuzzParseBench(f *testing.F) {
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")
	f.Add("INPUT(d)\nOUTPUT(q)\nq = DFF(n)\nn = NOT(q)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nz = XNOR(a, b, c)\nw = OR(a)\n")
	f.Add("INPUT(a)\nOUTPUT(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\ny = NOR(a, b)\n")
	f.Add("INPUT(a)\nOUTPUT(g1)\nOUTPUT(g1)\ng1 = nand(a, a)\nz = not(g1)\n")
	f.Add("ınput(a)\noutput(y)\ny = ınv(a)\n")
	redriven := regexp.MustCompile(`^bench line \d+: net ".*" already driven by (INPUT|line \d+)$`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		d, err := ParseBench(strings.NewReader(src), "fuzz", lib())
		ref, refErr := parseBenchRef(strings.NewReader(src), "fuzz", lib())
		switch {
		case refErr != nil:
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("error %v, reference error %v", err, refErr)
			}
			return
		case err != nil:
			if !redriven.MatchString(err.Error()) {
				t.Fatalf("rejected what the reference accepted: %v", err)
			}
			return
		case !reflect.DeepEqual(d, ref):
			t.Fatal("design differs from the reference reader's")
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted design does not validate: %v", err)
		}
		var buf strings.Builder
		if err := WriteBench(&buf, d); err != nil {
			return // constants have no .bench form
		}
		if _, err := ParseBench(strings.NewReader(buf.String()), "fuzz", lib()); err != nil {
			t.Fatalf("written design does not reparse: %v\n%s", err, buf.String())
		}
	})
}
