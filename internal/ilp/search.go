package ilp

// Branch and bound. One loop pops nodes in a fixed total order — best
// bound first, node sequence number breaking ties — solves each node's LP
// relaxation on the search's one workspace, and is the only place
// incumbents, pseudo-costs, statuses and the node count change. A node's
// relaxation depends only on its branching fixes and the optimal basis of
// its parent's relaxation (its warm start), never on the incumbent, so a
// child relaxation solved early by strong branching is exactly what the
// loop would have computed when it pops that child.

import (
	"container/heap"
	"math"

	"repro/internal/lp"
)

// bfix is one branching bound change: x_j <= v (upper) or x_j >= v.
type bfix struct {
	j     int
	upper bool
	v     float64
}

type pnode struct {
	seq   int64
	bound float64 // parent relaxation objective: a lower bound here
	fixes []bfix
	basis *lp.Basis  // the parent relaxation's optimal basis (nil at the root)
	pre   *lp.Result // the relaxation, when strong branching already solved it
	// branching bookkeeping for pseudo-cost updates when the node is solved.
	hasParent bool
	bvar      int
	bdir      int8
	bfrac     float64
	parentObj float64
}

// nodeHeap orders by (bound asc, seq desc): best bound first; among equal
// bounds the most recently created node, so the search dives.
type nodeHeap []*pnode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq > h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*pnode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return nd
}

type search struct {
	m     *Model       // bounds materialized
	pp    *lp.Prepared // m's prepared form, shared by every node solve
	isInt []bool
	pc    *pseudoCost

	strongLPs int // strong-branching LP solves so far
	// ws, L and U are the scratch every node solve reuses: the LP
	// workspace and the bound arrays a node's fixes are applied to.
	ws   lp.Workspace
	L, U []float64

	open    nodeHeap
	nextSeq int64
}

// solveNode solves the LP relaxation of the model with fixes applied,
// warm from basis (cold when nil).
func (s *search) solveNode(fixes []bfix, basis *lp.Basis) (lp.Result, error) {
	L := append(s.L[:0], s.m.L...)
	U := append(s.U[:0], s.m.U...)
	s.L, s.U = L, U
	for _, f := range fixes {
		if f.upper {
			if f.v < U[f.j] {
				U[f.j] = f.v
			}
		} else if f.v > L[f.j] {
			L[f.j] = f.v
		}
	}
	return s.ws.SolveFrom(s.pp, L, U, basis)
}

// boundsAt returns the effective bounds of column j at a node.
func (s *search) boundsAt(nd *pnode, j int) (lo, hi float64) {
	lo, hi = s.m.L[j], s.m.U[j]
	for _, f := range nd.fixes {
		if f.j != j {
			continue
		}
		if f.upper {
			if f.v < hi {
				hi = f.v
			}
		} else if f.v > lo {
			lo = f.v
		}
	}
	return lo, hi
}

// strongBranch solves the down/up child relaxations for each candidate
// column in order and charges the LP budget. The children warm-start from
// r's basis, exactly as the search would solve them as nodes, so their
// results are reusable as node results.
func (s *search) strongBranch(nd *pnode, cols []int, r *lp.Result) ([]strongOut, error) {
	outs := make([]strongOut, len(cols))
	for i, c := range cols {
		o := &outs[i]
		lo := math.Floor(r.X[c])
		hi := lo + 1
		effL, effU := s.boundsAt(nd, c)
		if lo >= effL-1e-9 {
			down, err := s.solveNode(appendBfix(nd.fixes, bfix{j: c, upper: true, v: lo}), r.Basis)
			if err != nil {
				return nil, err
			}
			o.down, o.downSolved = down, true
			s.strongLPs++
		}
		if hi <= effU+1e-9 {
			up, err := s.solveNode(appendBfix(nd.fixes, bfix{j: c, upper: false, v: hi}), r.Basis)
			if err != nil {
				return nil, err
			}
			o.up, o.upSolved = up, true
			s.strongLPs++
		}
	}
	return outs, nil
}

func appendBfix(fs []bfix, f bfix) []bfix {
	out := make([]bfix, len(fs)+1)
	copy(out, fs)
	out[len(fs)] = f
	return out
}

// fractionalCols lists the integer columns whose relaxation value is off
// the lattice, in ascending column order.
func fractionalCols(x []float64, isInt []bool) []int {
	var cands []int
	for j, xi := range x {
		if !isInt[j] {
			continue
		}
		if math.Abs(xi-math.Round(xi)) > intTol {
			cands = append(cands, j)
		}
	}
	return cands
}

// run is the search loop. It mutates res in place and returns an error
// only on internal LP failures.
func (s *search) run(res *Result, nodeLimit int) error {
	cutoff := res.Obj // incumbent objective

	heap.Push(&s.open, &pnode{seq: 0, bound: math.Inf(-1), bvar: -1})
	s.nextSeq = 1

	rootSolved := false
	truncated := false
	for len(s.open) > 0 {
		if res.Nodes >= nodeLimit {
			truncated = true
			break
		}
		nd := heap.Pop(&s.open).(*pnode)
		if nd.bound >= cutoff-1e-9 {
			continue
		}
		var r lp.Result
		if nd.pre != nil {
			r = *nd.pre
		} else {
			var err error
			if r, err = s.solveNode(nd.fixes, nd.basis); err != nil {
				return err
			}
		}
		res.Nodes++
		switch r.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			if !rootSolved {
				res.Status = RelaxUnbounded
				res.StrongLPs = s.strongLPs
				return nil
			}
			continue
		case lp.IterLimit:
			// Unusable relaxation: be conservative, drop the proof.
			truncated = true
			continue
		}
		if nd.hasParent {
			s.pc.observe(nd.bvar, nd.bdir, nd.bfrac, nd.parentObj, r.Obj)
		}
		if !rootSolved {
			rootSolved = true
			res.BoundObj = r.Obj
		}
		if r.Obj >= cutoff-1e-9 {
			continue
		}

		cands := fractionalCols(r.X, s.isInt)
		if len(cands) == 0 {
			// Integer feasible: round off the noise and accept.
			x := append([]float64(nil), r.X...)
			obj := 0.0
			for j := range x {
				if s.isInt[j] {
					x[j] = math.Round(x[j])
				}
				obj += s.m.C[j] * x[j]
			}
			if obj < cutoff {
				cutoff = obj
				res.Obj = obj
				res.X = x
			}
			continue
		}

		pk, err := s.pc.pick(s, nd, &r, cands)
		if err != nil {
			return err
		}
		x := r.X[pk.col]
		lo := math.Floor(x)
		hi := lo + 1
		frac := x - lo
		effL, effU := s.boundsAt(nd, pk.col)
		downOK := lo >= effL-1e-9 && !pk.downInfeas
		upOK := hi <= effU+1e-9 && !pk.upInfeas

		mkChild := func(dir int8, v float64, pre *lp.Result) {
			f := bfix{j: pk.col, upper: dir < 0, v: v}
			moved := frac
			if dir > 0 {
				moved = 1 - frac
			}
			heap.Push(&s.open, &pnode{
				seq:       s.nextSeq,
				bound:     r.Obj,
				fixes:     appendBfix(nd.fixes, f),
				basis:     r.Basis,
				pre:       pre,
				hasParent: true,
				bvar:      pk.col,
				bdir:      dir,
				bfrac:     moved,
				parentObj: r.Obj,
			})
			s.nextSeq++
		}
		// The nearer child is pushed last: it gets the larger sequence
		// number and, on equal bounds, is solved first (diving).
		if downOK && upOK {
			if frac > 0.5 {
				mkChild(-1, lo, pk.preDown)
				mkChild(+1, hi, pk.preUp)
			} else {
				mkChild(+1, hi, pk.preUp)
				mkChild(-1, lo, pk.preDown)
			}
		} else if downOK {
			mkChild(-1, lo, pk.preDown)
		} else if upOK {
			mkChild(+1, hi, pk.preUp)
		}
	}

	res.StrongLPs = s.strongLPs

	// Remaining frontier contributes to the proven bound.
	frontier := res.Obj
	for _, nd := range s.open {
		if nd.bound < frontier {
			frontier = nd.bound
		}
	}
	if len(s.open) == 0 && !truncated {
		if math.IsInf(res.Obj, 1) {
			res.Status = InfeasibleProven
			return nil
		}
		res.Status = OptimalProven
		res.BoundObj = res.Obj
		return nil
	}
	if math.IsInf(res.Obj, 1) {
		res.Status = NoSolution
	} else {
		res.Status = FeasibleBudget
		if frontier > res.BoundObj {
			res.BoundObj = frontier
		}
	}
	return nil
}
