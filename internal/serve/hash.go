package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/netlist"
)

// DesignKey returns the prefix-cache key of a (design, forceRows) pair: a
// SHA-256 over a canonical, injective encoding of everything the flow prefix
// depends on — the design name, PI names, every gate's cell and input
// signals, the primary outputs, and the row override. Two requests share a
// cached placement exactly when this key matches, whether the design came
// from a built-in generator or an uploaded netlist.
//
// Injectivity matters more than speed here: every variable-length field is
// length-prefixed and every signal is tagged with its kind, so no two
// structurally distinct designs can serialize to the same byte stream (the
// fuzz target FuzzDesignKey exercises exactly this). Gate instance names are
// deliberately excluded — placement and timing never read them, so designs
// differing only in instance naming correctly share one prefix.
func DesignKey(d *netlist.Design, forceRows int) string {
	// The stream is built in one buffer and hashed in one call.
	// TestDesignKeyPinned pins its bytes through four literal keys.
	buf := make([]byte, 0, 64+len(d.Name)+16*len(d.PINames)+24*len(d.Gates)+16*len(d.POs))
	putInt := func(v int64) { buf = binary.AppendVarint(buf, v) }
	putStr := func(s string) {
		putInt(int64(len(s)))
		buf = append(buf, s...)
	}
	putSig := func(s netlist.Signal) {
		putInt(int64(s.Kind))
		putInt(int64(s.Idx))
	}

	putStr(d.Name)
	putInt(int64(forceRows))
	putInt(int64(len(d.PINames)))
	for _, n := range d.PINames {
		putStr(n)
	}
	putInt(int64(len(d.Gates)))
	for i := range d.Gates {
		g := &d.Gates[i]
		putStr(g.Cell.Name)
		putInt(int64(len(g.Ins)))
		for _, s := range g.Ins {
			putSig(s)
		}
	}
	putInt(int64(len(d.POs)))
	for _, po := range d.POs {
		putStr(po.Name)
		putSig(po.Sig)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
