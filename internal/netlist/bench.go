package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

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
// The reader accepts this grammar:
//   - Leading and trailing white space is ignored, as are empty lines and
//     lines starting with '#'.
//   - The INPUT( and OUTPUT( keywords and the function names are
//     case-insensitive (Unicode upper-casing, so "ınput(" is INPUT too).
//   - Gates may appear in any order; a DFF may read a net defined later.
//   - Every net has one driver: a gate output must not name a primary
//     input or a net another gate line already drives. An INPUT or OUTPUT
//     may be declared more than once.
//   - A line may be at most 1 MB long (bufio.ErrTooLong beyond that).
//
// Functions with more inputs than the reduced library supports are folded
// into trees, and XOR/XNOR (absent from the library, as in the paper) are
// expanded into NAND structures on the fly.

// maxBenchLine is the longest .bench line ParseBench reads.
const maxBenchLine = 1 << 20

// benchGate is one gate line of a .bench text.
type benchGate struct {
	out  string
	fn   string
	args []string
	line int
}

// ParseBench reads a .bench netlist and maps it onto the library. Errors
// are reported in a fixed order: the first malformed line, then the first
// gate the library cannot build or resolve, and a net with two drivers
// last, only when the text is otherwise valid.
func ParseBench(r io.Reader, name string, lib *cell.Library) (*Design, error) {
	var (
		inputs  []string
		outputs []string
		raws    []benchGate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxBenchLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		switch {
		case hasKeyword(line, "INPUT(") && strings.HasSuffix(line, ")"):
			inputs = append(inputs, strings.TrimSpace(line[6:len(line)-1]))
		case hasKeyword(line, "OUTPUT(") && strings.HasSuffix(line, ")"):
			outputs = append(outputs, strings.TrimSpace(line[7:len(line)-1]))
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment: %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.IndexByte(rhs, '(')
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench line %d: expected FUNC(args): %q", lineNo, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			args := splitArgs(rhs[open+1 : len(rhs)-1])
			if len(args) == 0 {
				return nil, fmt.Errorf("bench line %d: %s with no arguments", lineNo, fn)
			}
			if err := checkBenchArity(fn, len(args)); err != nil {
				return nil, fmt.Errorf("bench line %d: %w", lineNo, err)
			}
			raws = append(raws, benchGate{out: out, fn: fn, args: args, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	b := NewBuilder(name, lib)
	sigs := make(map[string]Signal, len(inputs)+len(raws))
	for _, in := range inputs {
		sigs[in] = b.PI(in)
	}
	// A gate output that does not grow sigs names a net that is already
	// driven; which one is worked out only if the text is otherwise valid.
	redriven := false
	drive := func(out string, s Signal) {
		n := len(sigs)
		sigs[out] = s
		redriven = redriven || len(sigs) == n
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
			drive(rg.out, q)
			dffs = append(dffs, pendingDFF{gate: q.Idx, arg: rg.args[0], line: rg.line})
		}
	}
	remaining := make([]benchGate, 0, len(raws))
	for _, rg := range raws {
		if rg.fn != "DFF" {
			remaining = append(remaining, rg)
		}
	}
	var ins []Signal // scratch: Builder copies a gate's inputs
	for len(remaining) > 0 {
		progress := false
		var next []benchGate
		for _, rg := range remaining {
			ins = ins[:0]
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
			drive(rg.out, s)
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
	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	if redriven {
		return nil, redrivenNet(inputs, raws)
	}
	return d, nil
}

// hasKeyword reports whether strings.ToUpper(line) starts with kw, an
// upper-case ASCII keyword, without building the upper-cased copy: it
// compares rune by rune, mapped as ToUpper maps them (an invalid byte
// becomes U+FFFD, which matches nothing).
func hasKeyword(line, kw string) bool {
	i := 0
	for _, r := range line {
		if i == len(kw) {
			break
		}
		if unicode.ToUpper(r) != rune(kw[i]) {
			return false
		}
		i++
	}
	return i == len(kw)
}

// splitArgs splits a comma-separated argument list, trimming each
// argument and dropping empty ones.
func splitArgs(s string) []string {
	args := make([]string, 0, strings.Count(s, ",")+1)
	for more := true; more; {
		var a string
		a, s, more = strings.Cut(s, ",")
		if a = strings.TrimSpace(a); a != "" {
			args = append(args, a)
		}
	}
	return args
}

// redrivenNet returns the error for the first gate line, in file order,
// whose output net a primary input or an earlier gate line already drives.
func redrivenNet(inputs []string, gates []benchGate) error {
	driver := make(map[string]int, len(inputs)+len(gates)) // line, 0 for INPUT
	for _, in := range inputs {
		driver[in] = 0
	}
	for _, g := range gates {
		if m, ok := driver[g.out]; ok {
			if m == 0 {
				return fmt.Errorf("bench line %d: net %q already driven by INPUT", g.line, g.out)
			}
			return fmt.Errorf("bench line %d: net %q already driven by line %d", g.line, g.out, m)
		}
		driver[g.out] = g.line
	}
	return errors.New("bench: a net has two drivers")
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

// WriteBench emits the design in .bench format. PIs and POs keep their
// names; gate nets are named <prefix><N>, where the prefix is the first of
// g, g_, g__, ... that no PI or PO name followed by digits starts with. A
// PO whose name differs from its driver's net gets one BUFF alias line.
// Three things have no .bench form and are errors: constant signals (NAND
// of a PI with itself cannot express constants; the reduced flow never
// produces them), a PO named like a PI it is not driven by, and two POs
// sharing a name but not a driver.
func WriteBench(w io.Writer, d *Design) error {
	gp := gateNetPrefix(d)
	name := func(s Signal) (string, error) {
		switch s.Kind {
		case SigPI:
			return d.PINames[s.Idx], nil
		case SigGate:
			return gp + strconv.Itoa(int(s.Idx)), nil
		default:
			return "", fmt.Errorf("bench: constant signals are not representable")
		}
	}
	// PO aliases: .bench outputs reference net names directly; a PO named
	// differently from its driver net gets a BUFF alias, once per name.
	pis := make(map[string]bool, len(d.PINames))
	for _, in := range d.PINames {
		pis[in] = true
	}
	type poLine struct{ out, drv string }
	var aliases []poLine
	drvOf := make(map[string]string, len(d.POs))
	for _, po := range d.POs {
		drv, err := name(po.Sig)
		if err != nil {
			return err
		}
		if prev, ok := drvOf[po.Name]; ok {
			if prev != drv {
				return fmt.Errorf("bench: outputs named %q have different drivers", po.Name)
			}
			continue
		}
		drvOf[po.Name] = drv
		if po.Name == drv {
			continue
		}
		if pis[po.Name] {
			return fmt.Errorf("bench: output %q is named like an input it is not driven by", po.Name)
		}
		aliases = append(aliases, poLine{po.Name, drv})
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d gates, %d inputs, %d outputs\n",
		d.Name, len(d.Gates), len(d.PINames), len(d.POs))
	for _, in := range d.PINames {
		fmt.Fprintf(bw, "INPUT(%s)\n", in)
	}
	// Emit outputs before gate definitions, as is conventional.
	for _, po := range d.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", po.Name)
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
		fmt.Fprintf(bw, "%s%d = %s(%s)\n", gp, i, fn, strings.Join(args, ", "))
	}
	sort.Slice(aliases, func(i, j int) bool { return aliases[i].out < aliases[j].out })
	for _, p := range aliases {
		fmt.Fprintf(bw, "%s = BUFF(%s)\n", p.out, p.drv)
	}
	return bw.Flush()
}

// gateNetPrefix returns the gate net prefix of WriteBench: "g" followed
// by the fewest underscores such that no PI or PO name is that prefix
// followed by digits, so no gate net can take a port's name.
func gateNetPrefix(d *Design) string {
	taken := map[int]bool{} // underscore counts some port name rules out
	mark := func(name string) {
		rest, ok := strings.CutPrefix(name, "g")
		if !ok {
			return
		}
		digits := strings.TrimLeft(rest, "_")
		if digits != "" && strings.Trim(digits, "0123456789") == "" {
			taken[len(rest)-len(digits)] = true
		}
	}
	for _, in := range d.PINames {
		mark(in)
	}
	for _, po := range d.POs {
		mark(po.Name)
	}
	n := 0
	for taken[n] {
		n++
	}
	return "g" + strings.Repeat("_", n)
}
