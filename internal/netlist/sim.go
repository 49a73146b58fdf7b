package netlist

import (
	"fmt"
)

// Simulator evaluates a design's logic cycle by cycle. It is used to verify
// that the benchmark generators produce functionally correct circuits (the
// adder adds, the multiplier multiplies) before they are fed to the flow.
type Simulator struct {
	d     *Design
	topo  []GateID
	val   []bool // current output value per gate
	pi    []bool
	state []bool  // flip-flop contents
	ffIdx []int32 // gate -> state slot, -1 for combinational gates
	poIdx map[string]int
}

// NewSimulator builds a simulator; the design must validate.
func NewSimulator(d *Design) (*Simulator, error) {
	topo, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		d:     d,
		topo:  topo,
		val:   make([]bool, len(d.Gates)),
		pi:    make([]bool, len(d.PINames)),
		ffIdx: make([]int32, len(d.Gates)),
		poIdx: make(map[string]int, len(d.POs)),
	}
	nFF := 0
	for i := range d.Gates {
		if d.Gates[i].IsDFF() {
			s.ffIdx[i] = int32(nFF)
			nFF++
		} else {
			s.ffIdx[i] = -1
		}
	}
	s.state = make([]bool, nFF)
	for i, po := range d.POs {
		s.poIdx[po.Name] = i
	}
	return s, nil
}

// SetPI sets primary input i.
func (s *Simulator) SetPI(i int, v bool) { s.pi[i] = v }

// SetPIByName sets the named primary input.
func (s *Simulator) SetPIByName(name string, v bool) error {
	for i, n := range s.d.PINames {
		if n == name {
			s.pi[i] = v
			return nil
		}
	}
	return fmt.Errorf("netlist: no primary input %q", name)
}

// signal reads the current value of a signal.
func (s *Simulator) signal(sig Signal) bool {
	switch sig.Kind {
	case SigPI:
		return s.pi[sig.Idx]
	case SigGate:
		return s.val[sig.Idx]
	case SigConst1:
		return true
	default:
		return false
	}
}

// Eval propagates the current inputs and flip-flop state through the
// combinational logic.
func (s *Simulator) Eval() {
	var ins [8]bool
	for _, id := range s.topo {
		g := &s.d.Gates[id]
		if g.IsDFF() {
			s.val[id] = s.state[s.ffIdx[id]]
			continue
		}
		buf := ins[:len(g.Ins)]
		for k, in := range g.Ins {
			buf[k] = s.signal(in)
		}
		s.val[id] = g.Cell.Kind.Eval(buf)
	}
}

// Step evaluates the combinational logic and then clocks every flip-flop,
// latching its D input.
func (s *Simulator) Step() {
	s.Eval()
	for i := range s.d.Gates {
		if idx := s.ffIdx[i]; idx >= 0 {
			s.state[idx] = s.signal(s.d.Gates[i].Ins[0])
		}
	}
}

// ResetState clears all flip-flops.
func (s *Simulator) ResetState() {
	for i := range s.state {
		s.state[i] = false
	}
}

// PO returns the value of the named primary output after the last Eval.
func (s *Simulator) PO(name string) (bool, error) {
	i, ok := s.poIdx[name]
	if !ok {
		return false, fmt.Errorf("netlist: no primary output %q", name)
	}
	return s.signal(s.d.POs[i].Sig), nil
}

// SetUintInputs assigns the bits of v (LSB first) to the inputs named
// prefix0, prefix1, ... width times. It is a convenience for datapath tests.
func (s *Simulator) SetUintInputs(prefix string, width int, v uint64) error {
	for b := 0; b < width; b++ {
		if err := s.SetPIByName(fmt.Sprintf("%s%d", prefix, b), v&(1<<b) != 0); err != nil {
			return err
		}
	}
	return nil
}

// UintOutputs reads outputs named prefix0..prefix<width-1> as an integer,
// LSB first.
func (s *Simulator) UintOutputs(prefix string, width int) (uint64, error) {
	var v uint64
	for b := 0; b < width; b++ {
		bit, err := s.PO(fmt.Sprintf("%s%d", prefix, b))
		if err != nil {
			return 0, err
		}
		if bit {
			v |= 1 << b
		}
	}
	return v, nil
}
