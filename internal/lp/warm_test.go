package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// prepareOK prepares p, failing the test on an error.
func prepareOK(t *testing.T, p *Problem) *Prepared {
	t.Helper()
	pp, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// withBounds returns p with its own copies of L and U (materialized).
func withBounds(p *Problem) *Problem {
	q := *p
	n := len(p.C)
	q.L, q.U = make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		q.L[j], q.U[j] = p.lower(j), p.upper(j)
	}
	return &q
}

// checkWarmMatchesCold solves child cold and warm from basis and holds the
// warm answer to the cold one: same status, objective within
// 1e-7*max(1,|obj|), and a point feasible within tolFeas.
func checkWarmMatchesCold(t *testing.T, child *Problem, basis *Basis) Result {
	t.Helper()
	cold, err := Solve(child)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solveFrom(child, basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("warm status %v, cold %v", warm.Status, cold.Status)
	}
	if cold.Status != Optimal {
		if warm.Basis != nil {
			t.Fatalf("%v result carries a basis", warm.Status)
		}
		return warm
	}
	if d := math.Abs(warm.Obj - cold.Obj); d > 1e-7*math.Max(1, math.Abs(cold.Obj)) {
		t.Fatalf("warm obj %.12g, cold %.12g", warm.Obj, cold.Obj)
	}
	if warm.Basis == nil {
		t.Fatal("optimal warm result has no basis")
	}
	for i, row := range child.A {
		v := 0.0
		for j := range row {
			v += row[j] * warm.X[j]
		}
		bad := false
		switch child.Rel[i] {
		case LE:
			bad = v > child.B[i]+tolFeas
		case GE:
			bad = v < child.B[i]-tolFeas
		case EQ:
			bad = math.Abs(v-child.B[i]) > tolFeas
		}
		if bad {
			t.Fatalf("row %d: activity %.12g violates %v %g", i, v, child.Rel[i], child.B[i])
		}
	}
	for j, x := range warm.X {
		if x < child.lower(j)-tolFeas || x > child.upper(j)+tolFeas {
			t.Fatalf("x[%d] = %.12g outside [%g, %g]", j, x, child.lower(j), child.upper(j))
		}
	}
	return warm
}

// tighten applies a bound change to column j of p: branching-shaped (the
// down or up branch around the parent value x) or a random sub-interval.
func tighten(rng *rand.Rand, p *Problem, j int, x float64) {
	lo, hi := p.L[j], p.U[j]
	switch rng.Intn(3) {
	case 0: // down branch
		p.U[j] = math.Max(lo, math.Ceil(x)-1)
	case 1: // up branch
		p.L[j] = math.Min(hi, math.Floor(x)+1)
	default:
		a, b := lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo)
		if a > b {
			a, b = b, a
		}
		p.L[j], p.U[j] = a, b
	}
}

// warmChain solves p cold, then walks up to four generations of bound
// tightenings, each child warm-started from its parent's basis and held
// to a cold solve of the same child. also, when set, checks each child
// further.
func warmChain(t *testing.T, rng *rand.Rand, p *Problem, also func(child *Problem, basis *Basis, got Result)) {
	t.Helper()
	cur := withBounds(p)
	parent, err := Solve(cur)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 4 && parent.Status == Optimal; gen++ {
		child := withBounds(cur)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			j := rng.Intn(len(child.C))
			tighten(rng, child, j, parent.X[j])
		}
		basis := parent.Basis
		parent = checkWarmMatchesCold(t, child, basis)
		if also != nil {
			also(child, basis, parent)
		}
		cur = child
	}
}

func TestSolveFromMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		warmChain(t, rng, randomInequalityLP(rng), nil)
		warmChain(t, rng, randomEqualityLP(rng), nil)
	}
}

// FuzzSolveFrom holds warm starts to cold solves on bound-tightened
// children, and each child's answer to itself. A child is solved by the
// package-level SolveFrom (which prepares it afresh), then by bounds
// against the problem prepared once, as branch and bound does: twice back
// to back on one shared workspace (the second from the memoized refactor)
// and once more there after an unrelated solve has replaced the memo. It
// is also solved on the reference path; all five answers must be
// bit-identical. A sibling under other bounds, solved from the same basis
// right after the child (a memo hit), must match a fresh workspace. shape
// picks the problem: 0 a small inequality LP, 1 a small equality LP, 2
// and up randomShapedLP.
func FuzzSolveFrom(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(1-seed%2))
	}
	for seed := int64(16); seed < 24; seed++ {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		var p *Problem
		switch shape {
		case 0:
			p = randomInequalityLP(rng)
		case 1:
			p = randomEqualityLP(rng)
		default:
			p = randomShapedLP(rng)
		}
		other := randomBranchLP(rng)
		otherRoot, err := Solve(other)
		if err != nil {
			t.Fatal(err)
		}
		pp, ppOther := prepareOK(t, p), prepareOK(t, other)
		var w Workspace
		warmChain(t, rng, p, func(child *Problem, basis *Basis, fresh Result) {
			same := func(what string, got Result) {
				t.Helper()
				if diff := sameResult(got, fresh); diff != "" {
					t.Fatalf("%s: %s", what, diff)
				}
			}
			for _, what := range []string{"first solve", "repeat solve"} {
				got, err := w.SolveFrom(pp, child.L, child.U, basis)
				if err != nil {
					t.Fatal(err)
				}
				same(what, got)
			}
			sib := withBounds(child)
			k := rng.Intn(len(sib.C))
			tighten(rng, sib, k, (sib.L[k]+sib.U[k])/2)
			got, err := w.SolveFrom(pp, sib.L, sib.U, basis)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solveFrom(sib, basis)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("sibling from the memoized basis: %s", diff)
			}
			j := rng.Intn(len(other.C))
			osib := branch(other, j, 0.5, rng.Intn(2) == 0)
			if _, err := w.SolveFrom(ppOther, osib.L, osib.U, otherRoot.Basis); err != nil {
				t.Fatal(err)
			}
			got, err = w.SolveFrom(pp, child.L, child.U, basis)
			if err != nil {
				t.Fatal(err)
			}
			same("solve after an unrelated one", got)
			ref, err := refSolveFrom(child, basis)
			if err != nil {
				t.Fatal(err)
			}
			same("reference", ref)
		})
	})
}

// warmOnly solves child from basis without the cold fallback; ok reports
// whether the warm path itself answered.
func warmOnly(t *testing.T, child *Problem, basis *Basis) (Result, bool) {
	t.Helper()
	pp := prepareOK(t, child)
	var w Workspace
	return w.warm(pp, child, basis)
}

func TestSolveFromChildInfeasibleByFix(t *testing.T) {
	// x1 + x2 >= 1.5 over [0,1]^2 is feasible; fixing x1 to 0 is not.
	p := &Problem{
		C:   []float64{1, 2},
		A:   [][]float64{{1, 1}},
		Rel: []Rel{GE},
		B:   []float64{1.5},
		L:   []float64{0, 0},
		U:   []float64{1, 1},
	}
	parent := solveOK(t, p)
	if parent.Status != Optimal {
		t.Fatalf("parent status %v", parent.Status)
	}
	child := withBounds(p)
	child.U[0] = 0
	r, ok := warmOnly(t, child, parent.Basis)
	if !ok || r.Status != Infeasible {
		t.Fatalf("warm path: ok=%v status=%v, want a warm Infeasible", ok, r.Status)
	}
	checkWarmMatchesCold(t, child, parent.Basis)
}

func TestSolveFromFixesNonbasicAtUpper(t *testing.T) {
	// min -x1-x2-x3 s.t. x1+x2+x3 <= 2.5 over [0,1]^3: two columns sit
	// nonbasic at their upper bound. Fixing one of them to 0 moves the
	// optimum to -2.
	p := &Problem{
		C:   []float64{-1, -1, -1},
		A:   [][]float64{{1, 1, 1}},
		Rel: []Rel{LE},
		B:   []float64{2.5},
		L:   []float64{0, 0, 0},
		U:   []float64{1, 1, 1},
	}
	parent := solveOK(t, p)
	j := -1
	for k := range p.C {
		if parent.Basis.upper[0]>>k&1 != 0 {
			j = k
			break
		}
	}
	if j < 0 {
		t.Fatalf("no column at its upper bound in %+v", parent.Basis)
	}
	child := withBounds(p)
	child.U[j] = 0
	r, ok := warmOnly(t, child, parent.Basis)
	if !ok || r.Status != Optimal || math.Abs(r.Obj+2) > 1e-9 {
		t.Fatalf("warm path: ok=%v status=%v obj=%g, want a warm optimum -2", ok, r.Status, r.Obj)
	}
	checkWarmMatchesCold(t, child, parent.Basis)
}

func TestSolveFromBasicArtificialFallsBack(t *testing.T) {
	// The second equality row repeats the first, so phase 1 cannot pivot
	// its artificial out: it stays basic at zero and the basis records it.
	p := &Problem{
		C:   []float64{1, 2},
		A:   [][]float64{{1, 1}, {2, 2}},
		Rel: []Rel{EQ, EQ},
		B:   []float64{1, 2},
		L:   []float64{0, 0},
		U:   []float64{1, 1},
	}
	parent := solveOK(t, p)
	if parent.Status != Optimal {
		t.Fatalf("parent status %v", parent.Status)
	}
	hasArt := false
	for _, c := range parent.Basis.cols {
		hasArt = hasArt || c < 0
	}
	if !hasArt {
		t.Fatalf("basis %v has no artificial", parent.Basis.cols)
	}
	child := withBounds(p)
	child.U[0] = 0.5
	if _, ok := warmOnly(t, child, parent.Basis); ok {
		t.Fatal("warm path accepted a basis with a basic artificial")
	}
	r := checkWarmMatchesCold(t, child, parent.Basis)
	if r.Status != Optimal || math.Abs(r.Obj-1.5) > 1e-9 {
		t.Fatalf("status=%v obj=%g, want optimal 1.5", r.Status, r.Obj)
	}
}

func TestSolveFromRejectsMismatchedBasis(t *testing.T) {
	p := &Problem{C: []float64{1, 1}, A: [][]float64{{1, 1}}, Rel: []Rel{GE}, B: []float64{1}, U: []float64{1, 1}}
	parent := solveOK(t, p)
	taller := &Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}, {1, -1}},
		Rel: []Rel{GE, LE},
		B:   []float64{1, 0},
		U:   []float64{1, 1},
	}
	if _, ok := warmOnly(t, taller, parent.Basis); ok {
		t.Fatal("warm path accepted a basis with another row count")
	}
	checkWarmMatchesCold(t, taller, parent.Basis)
}

// TestWorkspaceReuse solves unrelated problems back to back on one
// workspace, each prepared once and solved by its child's bounds: nothing
// from an earlier solve may leak into a later one.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var w Workspace
	for trial := 0; trial < 200; trial++ {
		p := withBounds(randomInequalityLP(rng))
		parent := solveOK(t, p)
		if parent.Status != Optimal {
			continue
		}
		child := withBounds(p)
		j := rng.Intn(len(child.C))
		tighten(rng, child, j, parent.X[j])
		got, err := w.SolveFrom(prepareOK(t, p), child.L, child.U, parent.Basis)
		if err != nil {
			t.Fatal(err)
		}
		want := checkWarmMatchesCold(t, child, parent.Basis)
		if got.Status != want.Status || math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
			t.Fatalf("trial %d: reused workspace gave %v %g, fresh %v %g", trial, got.Status, got.Obj, want.Status, want.Obj)
		}
	}
}

// TestSolveFromSharedBasisConcurrent warm-starts many children from one
// Basis on concurrent goroutines, as branch-and-bound workers do: each must
// get exactly the bits a sequential solve of the same child gets.
func TestSolveFromSharedBasisConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := withBounds(randomInequalityLP(rng))
	for solveOK(t, p).Status != Optimal {
		p = withBounds(randomInequalityLP(rng))
	}
	parent := solveOK(t, p)
	pp := prepareOK(t, p)
	children := make([]*Problem, 32)
	want := make([]Result, len(children))
	for k := range children {
		children[k] = withBounds(p)
		j := rng.Intn(len(p.C))
		tighten(rng, children[k], j, parent.X[j])
		want[k] = checkWarmMatchesCold(t, children[k], parent.Basis)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w Workspace
			for k, child := range children {
				got, err := w.SolveFrom(pp, child.L, child.U, parent.Basis)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Status != want[k].Status || math.Float64bits(got.Obj) != math.Float64bits(want[k].Obj) {
					t.Errorf("child %d: concurrent %v %g, sequential %v %g", k, got.Status, got.Obj, want[k].Status, want[k].Obj)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolveFromChecksNodeBounds hands one Prepared problem malformed node
// bounds, on a workspace whose memo holds the very basis it starts from: a
// NaN upper bound, an infinite lower bound, an inverted interval or a bound
// array of the wrong length must each fail with an *InputError, never
// panic or answer.
func TestSolveFromChecksNodeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomBranchLP(rng)
	root := solveOK(t, p)
	for root.Status != Optimal {
		p = randomBranchLP(rng)
		root = solveOK(t, p)
	}
	pp := prepareOK(t, p)
	n := len(p.C)
	var w Workspace
	for _, tc := range []struct {
		name string
		edit func(L, U []float64) ([]float64, []float64)
	}{
		{"none", func(L, U []float64) ([]float64, []float64) { return L, U }},
		{"NaN upper bound", func(L, U []float64) ([]float64, []float64) { U[n-1] = math.NaN(); return L, U }},
		{"-Inf lower bound", func(L, U []float64) ([]float64, []float64) { L[0] = math.Inf(-1); return L, U }},
		{"+Inf lower bound", func(L, U []float64) ([]float64, []float64) {
			L[1], U[1] = math.Inf(1), math.Inf(1)
			return L, U
		}},
		{"NaN lower bound", func(L, U []float64) ([]float64, []float64) { L[2] = math.NaN(); return L, U }},
		{"inverted interval", func(L, U []float64) ([]float64, []float64) {
			L[3], U[3] = 0.5, math.Nextafter(0.5, 0)
			return L, U
		}},
		{"short L", func(L, U []float64) ([]float64, []float64) { return L[:n-1], U }},
		{"long U", func(L, U []float64) ([]float64, []float64) { return L, append(U, 1) }},
	} {
		child := branch(p, 0, root.X[0], true)
		L, U := tc.edit(child.L, child.U)
		_, err := w.SolveFrom(pp, L, U, root.Basis)
		var ie *InputError
		switch {
		case tc.name == "none":
			if err != nil {
				t.Fatalf("well-formed bounds: %v", err)
			}
			if w.fac.pp != pp || w.fac.b != root.Basis {
				t.Fatal("the root basis did not factor: the memo is not exercised")
			}
		case !errors.As(err, &ie):
			t.Errorf("%s: err = %v, want *InputError", tc.name, err)
		}
	}
}

// TestPreparedSharedConcurrent shares one Prepared problem among four
// goroutines, each with its own Workspace, as a parallel branch-and-bound
// search does. Every goroutine solves the same branch-and-bound-shaped
// list of children, from a rotated starting point so memo hits and misses
// differ between them, and every answer must equal the reference path's
// bit for bit.
func TestPreparedSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type node struct {
		child *Problem
		basis *Basis
		want  Result
	}
	var nodes []node
	var pps []*Prepared
	var owner []int // index into pps of each node's Prepared
	for len(pps) < 3 {
		p := randomBranchLP(rng)
		root := solveOK(t, p)
		if root.Status != Optimal {
			continue
		}
		pps = append(pps, prepareOK(t, p))
		for k := 0; k < 8; k++ {
			j := rng.Intn(len(p.C))
			for _, up := range []bool{false, true} {
				child := branch(p, j, root.X[j], up)
				want, err := refSolveFrom(child, root.Basis)
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, node{child, root.Basis, want})
				owner = append(owner, len(pps)-1)
				if want.Status == Optimal && k%4 == 0 {
					j := rng.Intn(len(p.C))
					grand := branch(child, j, want.X[j], !up)
					gwant, err := refSolveFrom(grand, want.Basis)
					if err != nil {
						t.Fatal(err)
					}
					nodes = append(nodes, node{grand, want.Basis, gwant})
					owner = append(owner, len(pps)-1)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var w Workspace
			for k := range nodes {
				i := (k + g*len(nodes)/4) % len(nodes)
				nd := nodes[i]
				got, err := w.SolveFrom(pps[owner[i]], nd.child.L, nd.child.U, nd.basis)
				if err != nil {
					t.Error(err)
					return
				}
				if diff := sameResult(got, nd.want); diff != "" {
					t.Errorf("goroutine %d, node %d: %s", g, i, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// randomBranchLP draws a branch-and-bound-sized relaxation: mostly binary
// columns, a few wider ones, and rows of every relation about half dense,
// all feasible at a random interior point.
func randomBranchLP(rng *rand.Rand) *Problem {
	n := 12 + rng.Intn(24)
	m := 6 + rng.Intn(18)
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Rel, m),
		B:   make([]float64, m),
		L:   make([]float64, n),
		U:   make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.U[j] = 1
		if rng.Intn(6) == 0 {
			p.L[j], p.U[j] = float64(rng.Intn(2)), float64(2+rng.Intn(3))
		}
		x0[j] = p.L[j] + rng.Float64()*(p.U[j]-p.L[j])
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		v := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				p.A[i][j] = rng.NormFloat64()
				v += p.A[i][j] * x0[j]
			}
		}
		switch rng.Intn(5) {
		case 0:
			p.Rel[i], p.B[i] = EQ, v
		case 1, 2:
			p.Rel[i], p.B[i] = LE, v+rng.Float64()
		default:
			p.Rel[i], p.B[i] = GE, v-rng.Float64()
		}
	}
	return p
}

// randomShapedLP draws a relaxation in the shapes the warm right-hand side
// treats apart from randomBranchLP's: lower bounds off zero on both sides
// of it, columns whose negative costs push them to their upper bound,
// slack >= rows, and sparse rows over unshifted columns whose right-hand
// side is -0 (there a row-by-row sum over every nonzero may end on +0
// where the walk over shifted columns keeps -0). All rows hold at a random
// interior point.
func randomShapedLP(rng *rand.Rand) *Problem {
	n := 8 + rng.Intn(16)
	m := 4 + rng.Intn(12)
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Rel, m),
		B:   make([]float64, m),
		L:   make([]float64, n),
		U:   make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64() - 0.5
		if rng.Intn(2) == 0 {
			p.L[j] = float64(rng.Intn(5) - 2)
		}
		p.U[j] = p.L[j] + float64(1+rng.Intn(3))
		x0[j] = p.L[j] + rng.Float64()*(p.U[j]-p.L[j])
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		negZero := rng.Intn(4) == 0
		v := 0.0
		for j := 0; j < n; j++ {
			if negZero && p.L[j] != 0 || rng.Intn(3) != 0 {
				continue
			}
			p.A[i][j] = rng.NormFloat64()
			v += p.A[i][j] * x0[j]
		}
		switch {
		case negZero:
			p.Rel[i], p.B[i] = LE, math.Copysign(0, -1)
			if v >= 0 {
				p.Rel[i] = GE
			}
		case rng.Intn(3) == 0:
			p.Rel[i], p.B[i] = LE, v+rng.Float64()
		default:
			p.Rel[i], p.B[i] = GE, v-2*rng.Float64()
		}
	}
	return p
}

// shapes counts the warm solves whose child or start basis has each shape
// randomShapedLP draws.
type shapes struct {
	lower, upper, geBasic, negZero int
}

// add counts the shapes of the child p solved from b.
func (c *shapes) add(p *Problem, b *Basis) {
	n := len(p.C)
	basic := make(map[int32]bool, len(b.cols))
	for _, col := range b.cols {
		basic[col] = true
	}
	lower, upper := false, false
	for j := 0; j < n; j++ {
		lower = lower || p.L[j] != 0
		upper = upper || !basic[int32(j)] && b.upper[j/64]>>(j%64)&1 != 0 && p.U[j] > p.L[j]
	}
	geBasic, negZero := false, false
	slack := int32(n)
	for i, rel := range p.Rel {
		if rel != EQ {
			geBasic = geBasic || rel == GE && basic[slack]
			slack++
		}
		negZero = negZero || math.Signbit(p.B[i]) && p.B[i] == 0
	}
	if lower {
		c.lower++
	}
	if upper {
		c.upper++
	}
	if geBasic {
		c.geBasic++
	}
	if negZero {
		c.negZero++
	}
}

// sameResult reports how got differs from want bit for bit — status,
// iteration count, every X and Obj bit, and the basis — or "" when it
// does not.
func sameResult(got, want Result) string {
	if got.Status != want.Status || got.Iters != want.Iters {
		return fmt.Sprintf("%v after %d iterations, want %v after %d", got.Status, got.Iters, want.Status, want.Iters)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		return fmt.Sprintf("obj %v (%#x), want %v (%#x)", got.Obj, math.Float64bits(got.Obj), want.Obj, math.Float64bits(want.Obj))
	}
	if len(got.X) != len(want.X) {
		return fmt.Sprintf("%d values, want %d", len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Sprintf("x[%d] %v (%#x), want %v (%#x)", j, got.X[j], math.Float64bits(got.X[j]), want.X[j], math.Float64bits(want.X[j]))
		}
	}
	if (got.Basis == nil) != (want.Basis == nil) {
		return fmt.Sprintf("basis %v, want %v", got.Basis, want.Basis)
	}
	if got.Basis != nil && (!slices.Equal(got.Basis.cols, want.Basis.cols) || !slices.Equal(got.Basis.upper, want.Basis.upper)) {
		return fmt.Sprintf("basis %+v, want %+v", *got.Basis, *want.Basis)
	}
	return ""
}

// refRunner runs warm solves on one Workspace, each against a problem
// prepared once and the child's bounds, holds each to refSolveFrom bit for
// bit, and counts the solves the workspace's memo answered.
type refRunner struct {
	t            *testing.T
	w            Workspace
	hits, misses int
}

// solve solves p, a child of the problem pp was prepared from, from b.
func (d *refRunner) solve(pp *Prepared, p *Problem, b *Basis) Result {
	d.t.Helper()
	hit := b != nil && d.w.fac.pp == pp && d.w.fac.b == b
	got, err := d.w.SolveFrom(pp, p.L, p.U, b)
	if err != nil {
		d.t.Fatal(err)
	}
	switch {
	case hit:
		d.hits++
	case b != nil && d.w.fac.pp == pp && d.w.fac.b == b:
		d.misses++
	}
	want, err := refSolveFrom(p, b)
	if err != nil {
		d.t.Fatal(err)
	}
	if diff := sameResult(got, want); diff != "" {
		d.t.Fatalf("memo hit %v: %s", hit, diff)
	}
	if d.w.fac.pp == pp && d.w.fac.b == b {
		if diff := memoCostsDiff(&d.w.fac, p.C); diff != "" {
			d.t.Fatal(diff)
		}
	}
	return got
}

// memoCostsDiff holds a memo's reduced costs to computeReducedCosts on the
// memoized tableau, bit for bit over every column, or returns "" when they
// agree. Most rounding differences in d never change a pivot, so the
// solves alone would not show them.
func memoCostsDiff(f *factored, c []float64) string {
	nCols := len(f.d)
	s := &simplex{
		m: len(f.basis), n: len(c), nCols: nCols,
		T:     make([][]float64, len(f.basis)),
		basis: f.basis,
		ub:    make([]float64, nCols),
		d:     make([]float64, nCols),
		cost:  make([]float64, nCols),
	}
	for i := range s.T {
		s.T[i] = f.t[i*nCols : (i+1)*nCols]
	}
	for j := range s.ub {
		s.ub[j] = 1 // every column active
	}
	copy(s.cost, c)
	s.computeReducedCosts()
	for j := range s.d {
		if math.Float64bits(f.d[j]) != math.Float64bits(s.d[j]) {
			return fmt.Sprintf("memoized d[%d] = %v (%#x), recomputed %v (%#x)", j, f.d[j], math.Float64bits(f.d[j]), s.d[j], math.Float64bits(s.d[j]))
		}
	}
	return ""
}

// branch returns the down (up=false) or up child of p on column j around
// the value x, with its own bounds.
func branch(p *Problem, j int, x float64, up bool) *Problem {
	c := withBounds(p)
	if up {
		c.L[j] = math.Min(c.U[j], math.Floor(x)+1)
	} else {
		c.U[j] = math.Max(c.L[j], math.Ceil(x)-1)
	}
	return c
}

// TestWarmMatchesReference drives branch-and-bound-shaped sequences of warm
// solves through one Workspace against one Prepared problem — siblings back
// to back, strong-branching fans of 16 children, interleaved parents, and
// chains four generations deep — and holds every answer to the reference
// path bit for bit: the sparse fill and right-hand side, the memoized
// refactor and the dense pivot kernel must be invisible. Cold
// solves are held to the reference pivot too. It runs once per axpy path
// the host has.
func TestWarmMatchesReference(t *testing.T) {
	saved := axpyAVX2
	defer func() { axpyAVX2 = saved }()
	paths := []string{"scalar"}
	if saved {
		paths = append(paths, "avx2")
	}
	for _, path := range paths {
		axpyAVX2 = path == "avx2"
		t.Run(path, func(t *testing.T) {
			testWarmMatchesReference(t)
			testWarmShapes(t)
		})
	}
}

// testWarmShapes holds warm solves of randomShapedLP children to the
// reference bit for bit: nonzero lower bounds, columns at their upper
// bound, >= rows whose slack is basic and -0 right-hand sides, each
// counted so a generator change cannot drop it unnoticed. Both children of
// a node are solved back to back from its basis on one workspace, so the
// second is a memo hit, and each must also equal a fresh workspace's
// answer.
func testWarmShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := &refRunner{t: t}
	var seen shapes
	for trial := 0; trial < 60; trial++ {
		p := randomShapedLP(rng)
		root, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal {
			continue
		}
		n := len(p.C)
		pp := prepareOK(t, p)
		cur, parent := withBounds(p), root
		for gen := 0; gen < 4; gen++ {
			j := rng.Intn(n)
			var next *Problem
			var nextRes Result
			for _, up := range []bool{false, true} {
				child := branch(cur, j, parent.X[j], up)
				seen.add(child, parent.Basis)
				memoHit := d.w.fac.pp == pp && d.w.fac.b == parent.Basis
				got := d.solve(pp, child, parent.Basis)
				fresh, err := solveFrom(child, parent.Basis)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResult(got, fresh); diff != "" {
					t.Fatalf("trial %d, memo hit %v: against a fresh workspace: %s", trial, memoHit, diff)
				}
				if got.Status == Optimal && next == nil {
					next, nextRes = child, got
				}
			}
			if next == nil {
				break
			}
			cur, parent = next, nextRes
		}
	}
	if seen.lower == 0 || seen.upper == 0 || seen.geBasic == 0 || seen.negZero == 0 || d.hits == 0 {
		t.Fatalf("shapes not all exercised: %+v, %d memo hits", seen, d.hits)
	}
	t.Logf("shapes %+v, %d memo hits, %d misses", seen, d.hits, d.misses)
}

func testWarmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := &refRunner{t: t}
	for trial := 0; trial < 60; trial++ {
		p := randomBranchLP(rng)
		root, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSolveCold(p)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(root, want); diff != "" {
			t.Fatalf("trial %d: cold solve: %s", trial, diff)
		}
		if root.Status != Optimal {
			continue
		}
		n := len(p.C)
		pp := prepareOK(t, p)

		// Siblings back to back, then a strong-branching fan: both
		// children of eight columns from the root basis.
		j := rng.Intn(n)
		down := d.solve(pp, branch(p, j, root.X[j], false), root.Basis)
		d.solve(pp, branch(p, j, root.X[j], true), root.Basis)
		for k := 0; k < 8; k++ {
			j := rng.Intn(n)
			d.solve(pp, branch(p, j, root.X[j], false), root.Basis)
			d.solve(pp, branch(p, j, root.X[j], true), root.Basis)
		}

		// Interleaved parents: the root's children alternate with a
		// grandchild's, so the memo keeps switching bases.
		if down.Status == Optimal {
			mid := branch(p, j, root.X[j], false)
			for k := 0; k < 4; k++ {
				j := rng.Intn(n)
				d.solve(pp, branch(p, j, root.X[j], k%2 == 0), root.Basis)
				d.solve(pp, branch(mid, j, down.X[j], k%2 == 1), down.Basis)
			}
		}

		// A chain four generations deep, both children at each level,
		// diving into the first feasible one.
		cur, parent := withBounds(p), root
		for gen := 0; gen < 4; gen++ {
			j := rng.Intn(n)
			var next *Problem
			var nextRes Result
			for _, up := range []bool{false, true} {
				child := branch(cur, j, parent.X[j], up)
				if r := d.solve(pp, child, parent.Basis); r.Status == Optimal && next == nil {
					next, nextRes = child, r
				}
			}
			if next == nil {
				break
			}
			cur, parent = next, nextRes
		}
	}
	if d.hits == 0 || d.misses == 0 {
		t.Fatalf("%d memo hits, %d misses: the sequences must exercise both", d.hits, d.misses)
	}
	t.Logf("%d memo hits, %d misses", d.hits, d.misses)
}

// TestPreparedColumnForm holds Prepare's column form to A: each column
// lists exactly its nonzeros, rows strictly ascending, with A's bits, and
// the two forms hold the same count. Rows and columns may be empty, and a
// -0 coefficient is a zero, absent from both forms.
func TestPreparedColumnForm(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		p := randomShapedLP(rng)
		if trial%2 == 0 {
			p.A[rng.Intn(len(p.A))] = make([]float64, len(p.C))
			i, j := rng.Intn(len(p.A)), rng.Intn(len(p.C))
			p.A[i][j] = math.Copysign(0, -1)
		}
		pp := prepareOK(t, p)
		n := len(p.C)
		if len(pp.cstart) != n+1 || pp.cstart[0] != 0 || int(pp.cstart[n]) != len(pp.col) {
			t.Fatalf("trial %d: column starts %v for %d row-form nonzeros", trial, pp.cstart, len(pp.col))
		}
		for j := 0; j < n; j++ {
			k := pp.cstart[j]
			for i, row := range p.A {
				if row[j] == 0 {
					continue
				}
				if k >= pp.cstart[j+1] || int(pp.row[k]) != i || math.Float64bits(pp.cval[k]) != math.Float64bits(row[j]) {
					t.Fatalf("trial %d: column %d lacks row %d (%v) at entry %d", trial, j, i, row[j], k)
				}
				k++
			}
			if k != pp.cstart[j+1] {
				t.Fatalf("trial %d: column %d lists %d entries, A has %d", trial, j, pp.cstart[j+1]-pp.cstart[j], k-pp.cstart[j])
			}
		}
	}
}

// TestWorkspaceMemoKeysOnProblem reuses one Basis against another Prepared
// of the same shape — one whose A or Rel differs, or the same problem
// prepared again: the memo must miss rather than replay the refactor it
// did for the first, and the answer is the one a fresh workspace gives.
func TestWorkspaceMemoKeysOnProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		p := randomBranchLP(rng)
		root := solveOK(t, p)
		if root.Status != Optimal {
			continue
		}
		pp := prepareOK(t, p)
		child := branch(p, 0, root.X[0], false)
		var w Workspace
		if _, err := w.SolveFrom(pp, child.L, child.U, root.Basis); err != nil {
			t.Fatal(err)
		}
		if w.fac.pp != pp || w.fac.b != root.Basis {
			continue // the basis did not factor: nothing memoized
		}
		other := withBounds(p)
		switch trial % 3 {
		case 0:
			other.A = make([][]float64, len(p.A))
			for i, row := range p.A {
				other.A[i] = slices.Clone(row)
				other.A[i][rng.Intn(len(row))] += 0.5
			}
		case 1:
			other.Rel = slices.Clone(p.Rel)
			i := rng.Intn(len(other.Rel))
			other.Rel[i] = (other.Rel[i] + 1) % 3
		}
		ppOther := prepareOK(t, other)
		got, err := w.SolveFrom(ppOther, other.L, other.U, root.Basis)
		if err != nil {
			t.Fatal(err)
		}
		// With as many slacks the basis passes warm's shape checks, so the
		// solve reaches the memo and must refactor (or fail to) for
		// ppOther; with another slack count it falls back before that.
		if ppOther.nCols == pp.nCols && w.fac.pp == pp {
			t.Fatalf("trial %d: the memo answered for another Prepared", trial)
		}
		want, err := solveFrom(other, root.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(got, want); diff != "" {
			t.Fatalf("trial %d: reused workspace: %s", trial, diff)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial memoized a refactor")
	}
}
