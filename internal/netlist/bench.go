package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cell"
)

// ISCAS .bench reader and writer. The format is line-oriented:
//
//	# comment
//	INPUT(a)
//	OUTPUT(y)
//	y = NAND(a, b)
//	q = DFF(d)
//
// Functions with more inputs than the reduced library supports are folded
// into trees, and XOR/XNOR (absent from the library, as in the paper) are
// expanded into NAND structures on the fly.

// ParseBench reads a .bench netlist and maps it onto the library.
func ParseBench(r io.Reader, name string, lib *cell.Library) (*Design, error) {
	type rawGate struct {
		out  string
		fn   string
		args []string
		line int
	}
	var (
		inputs  []string
		outputs []string
		raws    []rawGate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(line), "INPUT(") && strings.HasSuffix(line, ")"):
			inputs = append(inputs, strings.TrimSpace(line[6:len(line)-1]))
		case strings.HasPrefix(strings.ToUpper(line), "OUTPUT(") && strings.HasSuffix(line, ")"):
			outputs = append(outputs, strings.TrimSpace(line[7:len(line)-1]))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment: %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench line %d: expected FUNC(args): %q", lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			argstr := rhs[open+1 : len(rhs)-1]
			var args []string
			for _, a := range strings.Split(argstr, ",") {
				a = strings.TrimSpace(a)
				if a != "" {
					args = append(args, a)
				}
			}
			if len(args) == 0 {
				return nil, fmt.Errorf("bench line %d: %s with no arguments", lineNo, fn)
			}
			if err := checkBenchArity(fn, len(args)); err != nil {
				return nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
			raws = append(raws, rawGate{out: out, fn: fn, args: args, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	b := NewBuilder(name, lib)
	sigs := map[string]Signal{}
	for _, in := range inputs {
		sigs[in] = b.PI(in)
	}
	// Resolve gates iteratively: .bench files are not necessarily in
	// topological order, and DFF inputs may be defined later (sequential
	// loops). Two rounds: first place DFFs with placeholder inputs, then
	// resolve combinational gates until a fixed point, then patch DFFs.
	type pendingDFF struct {
		gate GateID
		arg  string
		line int
	}
	var dffs []pendingDFF
	for _, rg := range raws {
		if rg.fn == "DFF" {
			q := b.DFF(Const(false)) // placeholder D, patched below
			sigs[rg.out] = q
			dffs = append(dffs, pendingDFF{gate: q.Idx, arg: rg.args[0], line: rg.line})
		}
	}
	remaining := make([]rawGate, 0, len(raws))
	for _, rg := range raws {
		if rg.fn != "DFF" {
			remaining = append(remaining, rg)
		}
	}
	for len(remaining) > 0 {
		progress := false
		var next []rawGate
		for _, rg := range remaining {
			ins := make([]Signal, 0, len(rg.args))
			ready := true
			for _, a := range rg.args {
				s, ok := sigs[a]
				if !ok {
					ready = false
					break
				}
				ins = append(ins, s)
			}
			if !ready {
				next = append(next, rg)
				continue
			}
			s, err := buildBenchGate(b, rg.fn, ins)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %w", rg.line, err)
			}
			sigs[rg.out] = s
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("bench: unresolved signals (cycle or missing driver), e.g. %q", next[0].out)
		}
		remaining = next
	}
	for _, p := range dffs {
		s, ok := sigs[p.arg]
		if !ok {
			return nil, fmt.Errorf("bench line %d: DFF input %q undefined", p.line, p.arg)
		}
		b.d.Gates[p.gate].Ins[0] = s
	}
	for _, out := range outputs {
		s, ok := sigs[out]
		if !ok {
			return nil, fmt.Errorf("bench: output %q undefined", out)
		}
		b.Output(out, s)
	}
	b.SizeDrives()
	return b.Build()
}

// checkBenchArity rejects an input count a Builder cannot map: NOT, BUF
// and DFF take exactly one input, and NAND and NOR at least two (the
// library has no one-input NAND or NOR cell). Other functions take any
// positive count; unknown ones are rejected when the gate is built.
func checkBenchArity(fn string, n int) error {
	switch fn {
	case "NOT", "INV", "BUF", "BUFF", "DFF":
		if n != 1 {
			return fmt.Errorf("%s takes 1 input, got %d", fn, n)
		}
	case "NAND", "NOR":
		if n < 2 {
			return fmt.Errorf("%s takes at least 2 inputs, got %d", fn, n)
		}
	}
	return nil
}

func buildBenchGate(b *Builder, fn string, ins []Signal) (Signal, error) {
	switch fn {
	case "NOT", "INV":
		return b.Not(ins[0]), nil
	case "BUF", "BUFF":
		return b.Buf(ins[0]), nil
	case "AND":
		return b.And(ins...), nil
	case "OR":
		return b.Or(ins...), nil
	case "NAND":
		return b.Nand(ins...), nil
	case "NOR":
		return b.Nor(ins...), nil
	case "XOR":
		out := ins[0]
		for _, in := range ins[1:] {
			out = b.Xor(out, in)
		}
		return out, nil
	case "XNOR":
		out := ins[0]
		for _, in := range ins[1:] {
			out = b.Xor(out, in)
		}
		return b.Not(out), nil
	}
	return Signal{}, fmt.Errorf("unsupported bench function %q", fn)
}

// WriteBench emits the design in .bench format. Gates are named g<N>; PIs
// and POs keep their names. Constant inputs are emitted as tie nets driven
// by degenerate gates (NAND of a PI with itself cannot express constants, so
// constants are rejected: the reduced flow never produces them).
func WriteBench(w io.Writer, d *Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d gates, %d inputs, %d outputs\n",
		d.Name, len(d.Gates), len(d.PINames), len(d.POs))
	for _, in := range d.PINames {
		fmt.Fprintf(bw, "INPUT(%s)\n", in)
	}
	name := func(s Signal) (string, error) {
		switch s.Kind {
		case SigPI:
			return d.PINames[s.Idx], nil
		case SigGate:
			return fmt.Sprintf("g%d", s.Idx), nil
		default:
			return "", fmt.Errorf("bench: constant signals are not representable")
		}
	}
	// Emit outputs before gate definitions, as is conventional.
	type poLine struct{ out, drv string }
	var poLines []poLine
	for _, po := range d.POs {
		drv, err := name(po.Sig)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "OUTPUT(%s)\n", po.Name)
		poLines = append(poLines, poLine{po.Name, drv})
	}
	for i := range d.Gates {
		g := &d.Gates[i]
		var fn string
		switch g.Cell.Kind {
		case cell.Inv:
			fn = "NOT"
		case cell.Buf:
			fn = "BUFF"
		case cell.And:
			fn = "AND"
		case cell.Or:
			fn = "OR"
		case cell.Nand:
			fn = "NAND"
		case cell.Nor:
			fn = "NOR"
		case cell.Dff:
			fn = "DFF"
		default:
			return fmt.Errorf("bench: cannot emit cell kind %v", g.Cell.Kind)
		}
		args := make([]string, len(g.Ins))
		for k, in := range g.Ins {
			n, err := name(in)
			if err != nil {
				return err
			}
			args[k] = n
		}
		fmt.Fprintf(bw, "g%d = %s(%s)\n", i, fn, strings.Join(args, ", "))
	}
	// PO aliases: .bench outputs reference net names directly; emit BUFF
	// aliases when the PO name differs from its driver net.
	sort.Slice(poLines, func(i, j int) bool { return poLines[i].out < poLines[j].out })
	for _, p := range poLines {
		if p.out != p.drv {
			fmt.Fprintf(bw, "%s = BUFF(%s)\n", p.out, p.drv)
		}
	}
	return bw.Flush()
}
