package sta

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/place"
)

// Analyzer is the reusable form of Analyze for batched re-timing: everything
// a DelayScale vector cannot change — the topological order, the fanin and
// fanout adjacency, the estimated wire and pin load of every net, the
// nominal loaded gate delays, and the endpoint structure — is computed once
// at construction, so Run only re-evaluates delays, arrivals, requireds and
// the extracted path set. Monte-Carlo loops (YieldStream, aging) re-time
// thousands of per-die corners of one placement; with Analyze each corner
// pays the full graph build, with an Analyzer each corner is two linear
// passes plus path extraction into reused buffers.
//
// An Analyzer is immutable after construction and therefore safe for
// concurrent use: all per-call state lives in the caller-provided Timing
// buffer. Callers that run concurrently share one Analyzer and keep one
// Timing scratch buffer per worker.
type Analyzer struct {
	pl *place.Placement

	topo       []netlist.GateID
	nomDelayPS []float64 // loaded delay of every gate at scale 1.0
	isDFF      []bool

	// predStart/preds is the CSR fanin adjacency of the forward pass: the
	// gate-input edges of every combinational gate in pin order (flip-flop
	// D pins are sequential, not ordering, dependencies and are omitted).
	predStart []int32
	preds     []int32

	// succStart/succs/succSetupPS is the CSR fanout adjacency of the
	// backward pass, one entry per consumer pin in fanout order.
	// succSetupPS[k] >= 0 marks a flip-flop consumer (an endpoint whose
	// tail contribution is its setup time); -1 marks a combinational one.
	succStart   []int32
	succs       []int32
	succSetupPS []float64
}

// NewAnalyzer precomputes the scale-independent part of STA for a placed
// design. opts.DelayScale, the only option, is ignored: the scale vector is
// an argument of each Run call.
func NewAnalyzer(pl *place.Placement, opts Options) (*Analyzer, error) {
	d := pl.Design
	n := len(d.Gates)
	if n == 0 {
		return nil, errors.New("sta: empty design")
	}
	topo, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}

	a := &Analyzer{
		pl:         pl,
		topo:       topo,
		nomDelayPS: make([]float64, n),
		isDFF:      make([]bool, n),
		predStart:  make([]int32, n+1),
		succStart:  make([]int32, n+1),
	}

	// Loaded nominal delays: wire cap from the placement's net estimate,
	// one pin cap per occurrence of g in a consumer's inputs, and the
	// primary-output load.
	fanouts := pl.Fanouts()
	for g := 0; g < n; g++ {
		a.isDFF[g] = d.Gates[g].IsDFF()
		load := wireCapPerUMfF * pl.NetHPWL(netlist.GateID(g))
		for _, f := range fanouts[g] {
			for _, in := range d.Gates[f].Ins {
				if in.Kind == netlist.SigGate && in.Idx == netlist.GateID(g) {
					load += d.Gates[f].Cell.InputCapFF
				}
			}
		}
		if len(pl.POsOf(netlist.GateID(g))) > 0 {
			load += poLoadFF
		}
		a.nomDelayPS[g] = d.Gates[g].Cell.DelayPS(load)
	}

	// Fanin CSR, preserving pin order (duplicate pins included, exactly as
	// the forward pass visits them).
	for g := 0; g < n; g++ {
		gate := &d.Gates[g]
		if !gate.IsDFF() {
			for _, in := range gate.Ins {
				if in.Kind == netlist.SigGate {
					a.preds = append(a.preds, int32(in.Idx))
				}
			}
		}
		a.predStart[g+1] = int32(len(a.preds))
	}

	// Fanout CSR, preserving fanout-list order (one entry per consumer
	// pin, as Design.Fanouts builds it).
	for g := 0; g < n; g++ {
		for _, f := range fanouts[g] {
			a.succs = append(a.succs, int32(f))
			setup := -1.0
			if d.Gates[f].IsDFF() {
				setup = d.Gates[f].Cell.SetupPS
			}
			a.succSetupPS = append(a.succSetupPS, setup)
		}
		a.succStart[g+1] = int32(len(a.succs))
	}
	return a, nil
}

// Placement returns the placement the Analyzer was built for.
func (a *Analyzer) Placement() *place.Placement { return a.pl }

// NumGates returns the gate count, the required length of Run's scale
// vector.
func (a *Analyzer) NumGates() int { return len(a.nomDelayPS) }

// Run re-times the placement with each gate's delay multiplied by scale
// (nil = nominal, length must equal NumGates otherwise), producing the same
// Timing that Analyze would.
//
// Buffer contract: when buf is non-nil its slices — including the returned
// Paths and their Gates chains — are reused, so the previous Run's results
// held in the same buffer are invalidated; pass nil to allocate a fresh
// Timing. A buffer must not be shared between concurrent Run calls, but the
// Analyzer itself may be: it is never written after construction.
func (a *Analyzer) Run(scale []float64, buf *Timing) (*Timing, error) {
	n := len(a.nomDelayPS)
	if scale != nil && len(scale) != n {
		return nil, fmt.Errorf("sta: DelayScale length %d, want %d", len(scale), n)
	}
	tm := buf
	if tm == nil {
		tm = &Timing{}
	}
	tm.Pl = a.pl
	tm.Opts = Options{DelayScale: scale}
	tm.GateDelayPS = growFloat(tm.GateDelayPS, n)
	tm.ArrPS = growFloat(tm.ArrPS, n)
	tm.TailPS = growFloat(tm.TailPS, n)
	tm.bestPred = growInt32(tm.bestPred, n)
	tm.bestSucc = growInt32(tm.bestSucc, n)

	a.scaleDelays(tm.GateDelayPS, scale)

	// Forward pass: arrival times and best predecessor.
	for _, g := range a.topo {
		arr := 0.0
		best := int32(-1)
		for _, p := range a.preds[a.predStart[g]:a.predStart[g+1]] {
			if v := tm.ArrPS[p]; v > arr {
				arr = v
				best = p
			}
		}
		tm.ArrPS[g] = arr + tm.GateDelayPS[g]
		tm.bestPred[g] = best
	}

	// Backward pass: tails and best successor.
	for i := len(a.topo) - 1; i >= 0; i-- {
		g := a.topo[i]
		tail := 0.0
		succ := int32(-1)
		for k := a.succStart[g]; k < a.succStart[g+1]; k++ {
			f := a.succs[k]
			cand := a.succSetupPS[k]
			if cand < 0 {
				cand = tm.GateDelayPS[f] + tm.TailPS[f]
			}
			if cand > tail {
				tail = cand
				succ = f
			}
		}
		tm.TailPS[g] = tail
		tm.bestSucc[g] = succ
	}

	tm.DcritPS = dcrit(tm.ArrPS, tm.TailPS)
	a.extractPaths(tm)
	return tm, nil
}

// scaleDelays fills dst with the nominal loaded delays times the optional
// per-gate scale vector.
func (a *Analyzer) scaleDelays(dst, scale []float64) {
	if scale == nil {
		copy(dst, a.nomDelayPS)
		return
	}
	for g, s := range scale {
		dst[g] = a.nomDelayPS[g] * s
	}
}

// dcrit is the shared critical-delay reduction of Run and the one-lane
// RunLightBatch; one body, so the two cannot diverge in float order.
func dcrit(arr, tail []float64) float64 {
	d := 0.0
	for g := range arr {
		if t := arr[g] + tail[g]; t > d {
			d = t
		}
	}
	return d
}

// extractPaths reconstructs, for every gate, the longest path through it,
// and prunes the set to unique paths (the heuristic of [11] the paper uses
// to avoid full path enumeration). Chains are stored in tm's arena and
// deduplicated through tm's reusable open-hash table, so a warmed-up buffer
// extracts without allocating. Gates are visited in topological order so
// that a gate whose predecessor points back at it (bestSucc[bestPred[g]] ==
// g) can reuse the predecessor's chain wholesale: the two walks meet the
// same start- and endpoint, making the chains equal without rebuilding —
// the common case on chain-structured logic, which turns the O(depth) walk
// into O(1) for most gates.
func (a *Analyzer) extractPaths(tm *Timing) {
	n := len(a.nomDelayPS)
	paths := tm.Paths[:0]
	arena := tm.arena[:0]
	tm.pathOf = growInt32(tm.pathOf, n)

	nb := 1
	for nb < 2*n {
		nb <<= 1
	}
	if cap(tm.buckets) < nb {
		tm.buckets = make([]int32, nb)
	}
	buckets := tm.buckets[:nb]
	for i := range buckets {
		buckets[i] = -1
	}
	bnext := tm.bnext[:0]

	for _, g := range a.topo {
		delay := tm.ArrPS[g] + tm.TailPS[g]
		if p := tm.bestPred[g]; p >= 0 && tm.bestSucc[p] == int32(g) {
			// back(g) = back(p)+[g] and fwd(p) = [g]+fwd(g): identical
			// chains, so fold g's delay into p's already-registered path.
			idx := tm.pathOf[p]
			tm.pathOf[g] = idx
			if delay > paths[idx].DelayPS {
				paths[idx].DelayPS = delay
			}
			continue
		}
		// Walk back to the startpoint...
		back := tm.backBuf[:0]
		for cur := int32(g); cur >= 0; cur = tm.bestPred[cur] {
			back = append(back, netlist.GateID(cur))
		}
		tm.backBuf = back
		start := len(arena)
		for i := len(back) - 1; i >= 0; i-- {
			arena = append(arena, back[i])
		}
		// ...then forward to the endpoint. A flip-flop consumer is the
		// endpoint itself (its D pin); it is not part of the path, but
		// its setup time is already inside TailPS.
		for cur := tm.bestSucc[g]; cur >= 0; cur = tm.bestSucc[cur] {
			if a.isDFF[cur] {
				break
			}
			arena = append(arena, netlist.GateID(cur))
		}
		chain := arena[start:]

		h := uint64(14695981039346656037)
		for _, id := range chain {
			h ^= uint64(uint32(id))
			h *= 1099511628211
		}
		slot := h & uint64(nb-1)
		dup := false
		for j := buckets[slot]; j >= 0; j = bnext[j] {
			if slices.Equal(paths[j].Gates, chain) {
				// The same chain reconstructed from different gates can
				// differ in the last ulp (float association); keep the
				// max so the critical path matches Dcrit exactly.
				if delay > paths[j].DelayPS {
					paths[j].DelayPS = delay
				}
				tm.pathOf[g] = j
				dup = true
				break
			}
		}
		if dup {
			arena = arena[:start]
			continue
		}
		bnext = append(bnext, buckets[slot])
		buckets[slot] = int32(len(paths))
		tm.pathOf[g] = int32(len(paths))
		paths = append(paths, Path{Gates: chain, DelayPS: delay})
	}
	tm.arena = arena
	tm.bnext = bnext

	slices.SortFunc(paths, func(x, y Path) int {
		if x.DelayPS != y.DelayPS {
			if x.DelayPS > y.DelayPS {
				return -1
			}
			return 1
		}
		return len(y.Gates) - len(x.Gates)
	})
	for i := range paths {
		paths[i].SlackPS = tm.DcritPS - paths[i].DelayPS
	}
	tm.Paths = paths
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
