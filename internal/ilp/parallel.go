package ilp

// Deterministic parallel branch and bound. One commit loop pops nodes in
// a fixed total order — best bound first, node sequence number breaking
// ties — and is the only place incumbents, pseudo-costs, statuses and the
// node count change. Worker goroutines speculate: they solve the LP
// relaxations of still-pending nodes in the same order. A node's
// relaxation depends only on its branching fixes and the optimal basis of
// its parent's relaxation (its warm start), never on the incumbent or on
// which goroutine solves it, so a speculative result is exactly what the
// commit loop would have computed inline; workers therefore change
// wall-clock time but no observable output, and the search is
// byte-identical at any worker count. The incumbent objective is published atomically so workers can
// skip nodes the commit loop is guaranteed to prune; because the cutoff
// only ever decreases, that skip can never suppress a result the commit
// loop needs.

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/lp"
)

// specLeadMax bounds how many solved-but-uncommitted relaxations workers
// may accumulate (each holds a solution vector).
const specLeadMax = 256

type nodeState uint8

const (
	nodePending nodeState = iota
	nodeClaimed
	nodeSolved
	nodeDead
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
	basis *lp.Basis // the parent relaxation's optimal basis (nil at the root)
	// state/res/err are guarded by search.mu until the commit loop has
	// consumed the node.
	state  nodeState
	bySpec bool // solved by a worker (for the lead accounting)
	res    lp.Result
	err    error
	// branching bookkeeping for pseudo-cost updates at commit time.
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
	m       *Model       // bounds materialized
	pp      *lp.Prepared // m's prepared form, shared by every node solve
	isInt   []bool
	br      brancher
	workers int

	// strong-branching accounting (commit loop only).
	strongLPs int
	strongErr error
	// ws[0] is the commit loop's node-solve scratch; runAll's goroutine i
	// uses ws[i] while the commit loop waits for it.
	ws []*nodeWS

	mu          sync.Mutex
	spec        nodeHeap // pending nodes visible to workers
	solvedAhead int
	closed      bool
	workCond    *sync.Cond // workers wait here for work / lead room
	waitCond    *sync.Cond // commit loop waits here for a claimed node
	wg          sync.WaitGroup

	cutoffBits atomic.Uint64 // incumbent cutoff (advisory)

	// commit-loop-only state.
	open    nodeHeap
	nextSeq int64
}

func newSearch(m *Model, pp *lp.Prepared, br brancher, workers int) *search {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &search{m: m, pp: pp, isInt: m.Integer, br: br, workers: workers, ws: []*nodeWS{new(nodeWS)}}
	s.workCond = sync.NewCond(&s.mu)
	s.waitCond = sync.NewCond(&s.mu)
	s.publishCutoff(math.Inf(1))
	return s
}

func (s *search) publishCutoff(v float64) { s.cutoffBits.Store(math.Float64bits(v)) }
func (s *search) readCutoff() float64     { return math.Float64frombits(s.cutoffBits.Load()) }

// nodeWS is one search goroutine's scratch for node solves: the LP
// workspace and the bound arrays a node's fixes are applied to.
type nodeWS struct {
	lp   lp.Workspace
	L, U []float64
}

// solveNode solves a node's LP relaxation — the model with the node's
// branching fixes applied — warm from the parent's basis (cold at the
// root). A pure function of the node, callable from any goroutine with
// its own scratch.
func (s *search) solveNode(nd *pnode, ws *nodeWS) (lp.Result, error) {
	L := append(ws.L[:0], s.m.L...)
	U := append(ws.U[:0], s.m.U...)
	ws.L, ws.U = L, U
	for _, f := range nd.fixes {
		if f.upper {
			if f.v < U[f.j] {
				U[f.j] = f.v
			}
		} else if f.v > L[f.j] {
			L[f.j] = f.v
		}
	}
	return ws.lp.SolveFrom(s.pp, L, U, nd.basis)
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

func (s *search) workerLoop() {
	defer s.wg.Done()
	ws := new(nodeWS)
	s.mu.Lock()
	for {
		var nd *pnode
		for !s.closed {
			if s.solvedAhead < specLeadMax && len(s.spec) > 0 {
				nd = heap.Pop(&s.spec).(*pnode)
				break
			}
			s.workCond.Wait()
		}
		if nd == nil {
			break // closed
		}
		if nd.state != nodePending {
			nd = nil
			continue // claimed, solved or pruned while queued
		}
		if nd.bound >= s.readCutoff()-1e-9 {
			nd = nil
			continue // commit loop will prune it without a solve
		}
		nd.state = nodeClaimed
		nd.bySpec = true
		s.mu.Unlock()
		r, err := s.solveNode(nd, ws)
		s.mu.Lock()
		if nd.state == nodeDead {
			nd = nil
			continue // pruned while we solved; discard
		}
		nd.res, nd.err = r, err
		nd.state = nodeSolved
		s.solvedAhead++
		s.waitCond.Broadcast()
		nd = nil
	}
	s.mu.Unlock()
}

// ensure returns the node's relaxation result: the speculative one when a
// worker got there first, an inline solve otherwise.
func (s *search) ensure(nd *pnode) (lp.Result, error) {
	s.mu.Lock()
	switch nd.state {
	case nodePending:
		nd.state = nodeClaimed
		s.mu.Unlock()
		r, err := s.solveNode(nd, s.ws[0])
		s.mu.Lock()
		nd.res, nd.err = r, err
		nd.state = nodeSolved
	case nodeClaimed:
		for nd.state != nodeSolved {
			s.waitCond.Wait()
		}
	}
	if nd.bySpec {
		nd.bySpec = false
		s.solvedAhead--
		s.workCond.Signal()
	}
	r, err := nd.res, nd.err
	s.mu.Unlock()
	return r, err
}

// kill marks a popped node pruned so workers skip or discard it.
func (s *search) kill(nd *pnode) {
	s.mu.Lock()
	if nd.state == nodeSolved && nd.bySpec {
		s.solvedAhead--
		s.workCond.Signal()
	}
	nd.state = nodeDead
	nd.res = lp.Result{}
	s.mu.Unlock()
}

// release drops a committed node's solution vector.
func (s *search) release(nd *pnode) { nd.res = lp.Result{} }

// push enqueues a child for the commit loop and, if its relaxation is not
// already known (strong-branching reuse), for the workers.
func (s *search) push(nd *pnode) {
	heap.Push(&s.open, nd)
	if nd.state != nodePending || s.workers <= 1 {
		return
	}
	s.mu.Lock()
	heap.Push(&s.spec, nd)
	s.workCond.Signal()
	s.mu.Unlock()
}

func (s *search) close() {
	s.mu.Lock()
	s.closed = true
	s.workCond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// runAll executes tasks on up to s.workers goroutines, each with its own
// node-solve scratch, and joins them all (used for strong branching;
// determinism comes from joining before any result is consumed).
func (s *search) runAll(tasks []func(*nodeWS)) {
	if len(tasks) == 0 {
		return
	}
	nw := s.workers
	if nw > len(tasks) {
		nw = len(tasks)
	}
	for len(s.ws) < nw {
		s.ws = append(s.ws, new(nodeWS))
	}
	if nw <= 1 {
		for _, t := range tasks {
			t(s.ws[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(ws *nodeWS) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(tasks) {
					return
				}
				tasks[k](ws)
			}
		}(s.ws[i])
	}
	wg.Wait()
}

// strongBranch solves the down/up child relaxations for each candidate
// column (in parallel, joined before returning) and charges the LP budget.
// The children warm-start from r's basis, exactly as the search would
// solve them as nodes, so their results are reusable as node results.
func (s *search) strongBranch(nd *pnode, cols []int, r *lp.Result) []strongOut {
	outs := make([]strongOut, len(cols))
	if len(cols) == 0 {
		return outs
	}
	var tasks []func(*nodeWS)
	for i, c := range cols {
		o := &outs[i]
		x := r.X[c]
		lo := math.Floor(x)
		hi := lo + 1
		effL, effU := s.boundsAt(nd, c)
		if lo >= effL-1e-9 {
			child := &pnode{fixes: appendBfix(nd.fixes, bfix{j: c, upper: true, v: lo}), basis: r.Basis}
			tasks = append(tasks, func(ws *nodeWS) {
				o.down, o.downErr = s.solveNode(child, ws)
				o.downSolved = o.downErr == nil
			})
		}
		if hi <= effU+1e-9 {
			child := &pnode{fixes: appendBfix(nd.fixes, bfix{j: c, upper: false, v: hi}), basis: r.Basis}
			tasks = append(tasks, func(ws *nodeWS) {
				o.up, o.upErr = s.solveNode(child, ws)
				o.upSolved = o.upErr == nil
			})
		}
	}
	s.runAll(tasks)
	s.strongLPs += len(tasks)
	for i := range outs {
		if outs[i].downErr != nil && s.strongErr == nil {
			s.strongErr = outs[i].downErr
		}
		if outs[i].upErr != nil && s.strongErr == nil {
			s.strongErr = outs[i].upErr
		}
	}
	return outs
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

// run is the commit loop. It mutates res in place and returns an error
// only on internal LP failures.
func (s *search) run(res *Result, nodeLimit int) error {
	cutoff := res.Obj // incumbent objective
	s.publishCutoff(cutoff)

	root := &pnode{seq: 0, bound: math.Inf(-1), bvar: -1}
	s.nextSeq = 1
	s.push(root)

	nw := s.workers - 1
	for i := 0; i < nw; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	defer s.close()

	rootSolved := false
	truncated := false
	for len(s.open) > 0 {
		if res.Nodes >= nodeLimit {
			truncated = true
			break
		}
		nd := heap.Pop(&s.open).(*pnode)
		if nd.bound >= cutoff-1e-9 {
			s.kill(nd)
			continue
		}
		r, err := s.ensure(nd)
		if err != nil {
			return err
		}
		res.Nodes++
		switch r.Status {
		case lp.Infeasible:
			s.release(nd)
			continue
		case lp.Unbounded:
			if !rootSolved {
				res.Status = RelaxUnbounded
				res.StrongLPs = s.strongLPs
				return nil
			}
			s.release(nd)
			continue
		case lp.IterLimit:
			// Unusable relaxation: be conservative, drop the proof.
			truncated = true
			s.release(nd)
			continue
		}
		if nd.hasParent {
			s.br.observe(nd.bvar, nd.bdir, nd.bfrac, nd.parentObj, r.Obj)
		}
		if !rootSolved {
			rootSolved = true
			res.BoundObj = r.Obj
		}
		if r.Obj >= cutoff-1e-9 {
			s.release(nd)
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
				s.publishCutoff(obj)
			}
			s.release(nd)
			continue
		}

		pk := s.br.pick(s, nd, &r, cands)
		if s.strongErr != nil {
			return s.strongErr
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
			child := &pnode{
				seq:       s.nextSeq,
				bound:     r.Obj,
				fixes:     appendBfix(nd.fixes, f),
				basis:     r.Basis,
				hasParent: true,
				bvar:      pk.col,
				bdir:      dir,
				bfrac:     moved,
				parentObj: r.Obj,
			}
			s.nextSeq++
			if pre != nil {
				child.state = nodeSolved
				child.res = *pre
			}
			s.push(child)
		}
		// The nearer child is pushed last: it gets the larger sequence
		// number and, on equal bounds, is committed first (diving).
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
		s.release(nd)
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
