package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/cell"
)

// parseBenchRef is the line-by-line .bench reader ParseBench replaced,
// kept verbatim as the oracle of the differential tests: it upper-cases
// every line for its keyword tests, splits arguments with strings.Split
// and allocates a fresh 1 MB scanner buffer per call. ParseBench must build a reflect.DeepEqual Design or return the
// same error text on every input, except that it rejects a net with two
// drivers, which this reader silently resolved to the last one.
func parseBenchRef(r io.Reader, name string, lib *cell.Library) (*Design, error) {
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
