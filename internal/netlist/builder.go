package netlist

import (
	"fmt"

	"repro/internal/cell"
)

// Builder assembles designs structurally. All gates are created at drive X1;
// SizeDrives applies a fanout-based sizing pass afterwards, mimicking what a
// synthesis tool does. Functions with more inputs than the library offers
// (>3) are folded into balanced trees; XOR, which the reduced library lacks,
// is expanded into four NAND2s exactly as row-based synthesis flows do.
type Builder struct {
	lib   *cell.Library
	d     *Design
	piIdx map[string]int
	// slab is the unused tail of the block raw carves gate inputs from.
	slab []Signal
}

// slabLen is the number of gate inputs one slab block holds.
const slabLen = 1024

// NewBuilder starts a design with the given name on the library.
func NewBuilder(name string, lib *cell.Library) *Builder {
	return &Builder{
		lib:   lib,
		d:     &Design{Name: name},
		piIdx: map[string]int{},
	}
}

// PI declares (or returns the existing) primary input with the given name.
func (b *Builder) PI(name string) Signal {
	if i, ok := b.piIdx[name]; ok {
		return PISignal(i)
	}
	i := len(b.d.PINames)
	b.d.PINames = append(b.d.PINames, name)
	b.piIdx[name] = i
	return PISignal(i)
}

// PIBus declares width inputs named prefix0..prefix<width-1> (LSB first).
func (b *Builder) PIBus(prefix string, width int) []Signal {
	out := make([]Signal, width)
	for i := range out {
		out[i] = b.PI(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// Output declares a primary output.
func (b *Builder) Output(name string, s Signal) {
	b.d.POs = append(b.d.POs, Port{Name: name, Sig: s})
}

// OutputBus declares width outputs named prefix0.. for the given signals.
func (b *Builder) OutputBus(prefix string, sigs []Signal) {
	for i, s := range sigs {
		b.Output(fmt.Sprintf("%s%d", prefix, i), s)
	}
}

// Gate instantiates a gate of the given kind over the inputs, folding wide
// functions into trees of 2/3-input cells.
func (b *Builder) Gate(k cell.Kind, ins ...Signal) Signal {
	switch k {
	case cell.Inv, cell.Buf, cell.Dff:
		if len(ins) != 1 {
			panic(fmt.Sprintf("netlist: %v takes 1 input, got %d", k, len(ins)))
		}
		return b.raw(k, ins...)
	case cell.And, cell.Or:
		return b.tree(k, ins)
	case cell.Nand:
		if len(ins) <= 3 {
			return b.raw(k, ins...)
		}
		return b.Not(b.tree(cell.And, ins))
	case cell.Nor:
		if len(ins) <= 3 {
			return b.raw(k, ins...)
		}
		return b.Not(b.tree(cell.Or, ins))
	}
	panic(fmt.Sprintf("netlist: cannot build kind %v", k))
}

// tree folds an associative function into a balanced tree of 3- and 2-input
// cells.
func (b *Builder) tree(k cell.Kind, ins []Signal) Signal {
	switch len(ins) {
	case 0:
		panic("netlist: empty input list")
	case 1:
		return ins[0]
	case 2, 3:
		return b.raw(k, ins...)
	}
	var next []Signal
	i := 0
	for i < len(ins) {
		rem := len(ins) - i
		take := 3
		if rem == 4 { // avoid a trailing 1-input group
			take = 2
		}
		if rem < take {
			take = rem
		}
		next = append(next, b.raw(k, ins[i:i+take]...))
		i += take
	}
	return b.tree(k, next)
}

// raw instantiates one library cell, after the constant folding any
// synthesis flow performs: gates with constant inputs are simplified or
// removed. Folding is what turns a full adder with a constant carry into a
// half adder, as in the generated datapaths.
func (b *Builder) raw(k cell.Kind, ins ...Signal) Signal {
	if s, done := b.fold(k, ins); done {
		return s
	}
	c, ok := b.lib.Pick(k, len(ins), 1)
	if !ok {
		panic(fmt.Sprintf("netlist: no %v cell with %d inputs", k, len(ins)))
	}
	// Each gate owns a capacity-capped window of the slab, so no gate's
	// inputs alias another's, even under append.
	n := len(ins)
	if len(b.slab) < n {
		b.slab = make([]Signal, max(slabLen, n))
	}
	gIns := b.slab[:n:n]
	b.slab = b.slab[n:]
	copy(gIns, ins)
	id := GateID(len(b.d.Gates))
	b.d.Gates = append(b.d.Gates, Gate{Cell: c, Ins: gIns})
	return GateSignal(id)
}

// fold simplifies constant inputs. It reports done=true when the result is
// fully determined without instantiating a cell of kind k (the returned
// signal may still have caused a simpler cell, e.g. NAND(a,1) -> INV(a)).
func (b *Builder) fold(k cell.Kind, ins []Signal) (Signal, bool) {
	isConst := func(s Signal) (bool, bool) {
		switch s.Kind {
		case SigConst0:
			return true, false
		case SigConst1:
			return true, true
		}
		return false, false
	}
	switch k {
	case cell.Inv:
		if c, v := isConst(ins[0]); c {
			return Const(!v), true
		}
	case cell.Buf:
		if c, v := isConst(ins[0]); c {
			return Const(v), true
		}
	case cell.Dff:
		return Signal{}, false // state elements are never folded
	case cell.And, cell.Nand:
		var live []Signal
		for _, s := range ins {
			if c, v := isConst(s); c {
				if !v { // a constant 0 dominates
					if k == cell.And {
						return Const(false), true
					}
					return Const(true), true
				}
				continue // constant 1 is the identity
			}
			live = append(live, s)
		}
		if len(live) == len(ins) {
			return Signal{}, false
		}
		switch {
		case len(live) == 0:
			return Const(k == cell.And), true
		case len(live) == 1:
			if k == cell.And {
				return live[0], true
			}
			return b.raw(cell.Inv, live[0]), true
		default:
			return b.raw(k, live...), true
		}
	case cell.Or, cell.Nor:
		var live []Signal
		for _, s := range ins {
			if c, v := isConst(s); c {
				if v { // a constant 1 dominates
					if k == cell.Or {
						return Const(true), true
					}
					return Const(false), true
				}
				continue // constant 0 is the identity
			}
			live = append(live, s)
		}
		if len(live) == len(ins) {
			return Signal{}, false
		}
		switch {
		case len(live) == 0:
			return Const(k != cell.Or), true
		case len(live) == 1:
			if k == cell.Or {
				return live[0], true
			}
			return b.raw(cell.Inv, live[0]), true
		default:
			return b.raw(k, live...), true
		}
	}
	return Signal{}, false
}

// Convenience wrappers.

// Not inverts a signal.
func (b *Builder) Not(a Signal) Signal { return b.raw(cell.Inv, a) }

// Buf buffers a signal.
func (b *Builder) Buf(a Signal) Signal { return b.raw(cell.Buf, a) }

// And returns the conjunction of the inputs.
func (b *Builder) And(ins ...Signal) Signal { return b.Gate(cell.And, ins...) }

// Or returns the disjunction of the inputs.
func (b *Builder) Or(ins ...Signal) Signal { return b.Gate(cell.Or, ins...) }

// Nand returns the negated conjunction.
func (b *Builder) Nand(ins ...Signal) Signal { return b.Gate(cell.Nand, ins...) }

// Nor returns the negated disjunction.
func (b *Builder) Nor(ins ...Signal) Signal { return b.Gate(cell.Nor, ins...) }

// DFF adds a flip-flop latching d.
func (b *Builder) DFF(d Signal) Signal { return b.raw(cell.Dff, d) }

// DFFBus registers every signal of a bus.
func (b *Builder) DFFBus(ds []Signal) []Signal {
	out := make([]Signal, len(ds))
	for i, d := range ds {
		out[i] = b.DFF(d)
	}
	return out
}

// Xor builds a XOR2 from four NAND2 cells (the reduced library has no XOR).
func (b *Builder) Xor(a, x Signal) Signal {
	n1 := b.raw(cell.Nand, a, x)
	n2 := b.raw(cell.Nand, a, n1)
	n3 := b.raw(cell.Nand, x, n1)
	return b.raw(cell.Nand, n2, n3)
}

// Xnor is the complement of Xor.
func (b *Builder) Xnor(a, x Signal) Signal { return b.Not(b.Xor(a, x)) }

// XorTree folds many signals through Xor.
func (b *Builder) XorTree(ins []Signal) Signal {
	if len(ins) == 0 {
		panic("netlist: empty xor tree")
	}
	for len(ins) > 1 {
		var next []Signal
		for i := 0; i+1 < len(ins); i += 2 {
			next = append(next, b.Xor(ins[i], ins[i+1]))
		}
		if len(ins)%2 == 1 {
			next = append(next, ins[len(ins)-1])
		}
		ins = next
	}
	return ins[0]
}

// Mux returns a ? b1 : b0 using four NAND2 cells plus an inverter.
func (b *Builder) Mux(sel, b0, b1 Signal) Signal {
	ns := b.Not(sel)
	n0 := b.raw(cell.Nand, b0, ns)
	n1 := b.raw(cell.Nand, b1, sel)
	return b.raw(cell.Nand, n0, n1)
}

// MuxBus muxes two equal-width buses.
func (b *Builder) MuxBus(sel Signal, b0, b1 []Signal) []Signal {
	if len(b0) != len(b1) {
		panic("netlist: mux bus width mismatch")
	}
	out := make([]Signal, len(b0))
	for i := range b0 {
		out[i] = b.Mux(sel, b0[i], b1[i])
	}
	return out
}

// FullAdder returns (sum, carry) of three inputs using the classic
// two-XOR/majority decomposition.
func (b *Builder) FullAdder(a, x, cin Signal) (sum, carry Signal) {
	p := b.Xor(a, x)
	sum = b.Xor(p, cin)
	carry = b.Or(b.And(a, x), b.And(p, cin))
	return sum, carry
}

// RippleAdder adds two equal-width buses with carry-in, returning the sum
// bits and the carry-out.
func (b *Builder) RippleAdder(a, x []Signal, cin Signal) (sum []Signal, cout Signal) {
	if len(a) != len(x) {
		panic("netlist: adder width mismatch")
	}
	sum = make([]Signal, len(a))
	c := cin
	for i := range a {
		sum[i], c = b.FullAdder(a[i], x[i], c)
	}
	return sum, c
}

// NumGates returns the number of gates built so far.
func (b *Builder) NumGates() int { return len(b.d.Gates) }

// SizeDrives applies a fanout-based drive sizing pass: outputs driving four
// or more pins get X2 cells, eight or more get X4.
func (b *Builder) SizeDrives() {
	counts := b.d.FanoutCounts()
	for i := range b.d.Gates {
		g := &b.d.Gates[i]
		drive := 1
		switch {
		case counts[i] >= 8:
			drive = 4
		case counts[i] >= 4:
			drive = 2
		}
		if drive != g.Cell.Drive {
			if c, ok := b.lib.Pick(g.Cell.Kind, g.Cell.NumInputs, drive); ok {
				g.Cell = c
			}
		}
	}
}

// Build validates and returns the design. The builder remains usable, but
// the returned design is shared, not copied.
func (b *Builder) Build() (*Design, error) {
	if err := b.d.Validate(); err != nil {
		return nil, err
	}
	return b.d, nil
}

// MustBuild is Build for generators whose structure is fixed at compile time.
func (b *Builder) MustBuild() *Design {
	d, err := b.Build()
	if err != nil {
		panic("netlist: " + err.Error())
	}
	return d
}
