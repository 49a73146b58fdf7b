package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"strings"

	"repro/internal/cell"
	"repro/internal/memo"
	"repro/internal/netlist"
)

// uploadMemoSize bounds each tier's upload memo. An entry is a 32-byte
// digest, a 64-character key and a gate count; no upload text is kept.
const uploadMemoSize = 1024

// builtinMemoSize bounds the memos of built-in benchmarks: fbbd's designs,
// and each tier's design keys by (benchmark, forceRows). It holds every
// built-in (gen.All lists nine) at several row counts.
const builtinMemoSize = 64

// designInfo is what a tier needs of a design before any flow runs: its
// prefix-cache key (DesignKey) and its gate count (MaxGates admission).
type designInfo struct {
	key   string
	gates int
}

// designResolver resolves DesignRefs to designInfo for both tiers, doing
// each design's parse and hash once. Built-in benchmarks are memoized by
// (benchmark, forceRows); uploads by uploadDigest, so a client tuning one
// upload at many (β, C) points is parsed once per tier. Both are memo.Memos:
// failures — unknown names, failed parses, oversize designs — are never
// memoized, so every 400 is recomputed, with the same text. Safe for
// concurrent use.
type designResolver struct {
	lib *cell.Library
	// builtin returns a built-in benchmark's design: the replica memoizes
	// the design for its prefix builds, the router drops it after hashing.
	builtin  func(name string) (*netlist.Design, error)
	builtins *memo.Memo[builtinRef, designInfo]
	uploads  *memo.Memo[[sha256.Size]byte, designInfo]
}

type builtinRef struct {
	benchmark string
	forceRows int
}

func newDesignResolver(builtin func(name string) (*netlist.Design, error)) *designResolver {
	return &designResolver{
		lib:      cell.Default(),
		builtin:  builtin,
		builtins: memo.New[builtinRef, designInfo](builtinMemoSize),
		uploads:  memo.New[[sha256.Size]byte, designInfo](uploadMemoSize),
	}
}

// resolve returns ref's key and gate count, failing a design over maxGates
// with the replica's "design too large" error. ref must name exactly one
// design, as validate checks. When resolve had to parse an upload it also
// returns the design, so a prefix miss right behind it need not parse
// again; otherwise the design is nil and design recovers it.
func (dr *designResolver) resolve(ref *DesignRef, maxGates int) (designInfo, *netlist.Design, error) {
	if ref.Netlist == "" {
		info, err := dr.builtinInfo(ref)
		if err == nil {
			err = checkGates(info.gates, maxGates)
		}
		return info, nil, err
	}
	var d *netlist.Design
	sum := uploadDigest(ref.uploadName(), ref.ForceRows, ref.Netlist)
	info, err := dr.uploads.Get(context.TODO(), sum, func() (designInfo, error) {
		var err error
		if d, err = parseUpload(ref, dr.lib); err != nil {
			return designInfo{}, err
		}
		if err := checkGates(d.NumGates(), maxGates); err != nil {
			return designInfo{}, err
		}
		return designInfo{key: DesignKey(d, ref.ForceRows), gates: d.NumGates()}, nil
	})
	if err != nil {
		return designInfo{}, nil, err
	}
	return info, d, nil
}

// design returns the netlist of a DesignRef that resolve accepted: the
// built-in benchmark, or the upload parsed again.
func (dr *designResolver) design(ref *DesignRef) (*netlist.Design, error) {
	if ref.Netlist != "" {
		return parseUpload(ref, dr.lib)
	}
	return dr.builtin(ref.Benchmark)
}

func (dr *designResolver) builtinInfo(ref *DesignRef) (designInfo, error) {
	return dr.builtins.Get(context.TODO(), builtinRef{ref.Benchmark, ref.ForceRows}, func() (designInfo, error) {
		d, err := dr.builtin(ref.Benchmark)
		if err != nil {
			return designInfo{}, err
		}
		return designInfo{key: DesignKey(d, ref.ForceRows), gates: d.NumGates()}, nil
	})
}

// defaultMaxGates is both tiers' default design size limit.
const defaultMaxGates = 100_000

func checkGates(n, maxGates int) error {
	if n > maxGates {
		return fmt.Errorf("design too large: %d gates > limit %d", n, maxGates)
	}
	return nil
}

// uploadName is the design name of an uploaded netlist.
func (d *DesignRef) uploadName() string {
	if d.Name == "" {
		return "custom"
	}
	return d.Name
}

func parseUpload(ref *DesignRef, lib *cell.Library) (*netlist.Design, error) {
	return netlist.ParseBench(strings.NewReader(ref.Netlist), ref.uploadName(), lib)
}

// uploadDigest is the SHA-256 of an upload's length-prefixed name, its
// forceRows and its netlist text: everything its design key depends on,
// encoded injectively (the text runs to the end).
func uploadDigest(name string, forceRows int, text string) [sha256.Size]byte {
	h := sha256.New()
	var buf [1024]byte
	h.Write(binary.AppendUvarint(buf[:0], uint64(len(name))))
	hashString(h, buf[:], name)
	h.Write(binary.AppendVarint(buf[:0], int64(forceRows)))
	hashString(h, buf[:], text)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// hashString writes s to h through buf, so the text is never copied whole.
func hashString(h hash.Hash, buf []byte, s string) {
	for len(s) > 0 {
		n := copy(buf, s)
		h.Write(buf[:n])
		s = s[n:]
	}
}
