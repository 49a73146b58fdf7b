package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

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
	warm, err := SolveFrom(child, basis)
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
// to a cold solve of the same child.
func warmChain(t *testing.T, rng *rand.Rand, p *Problem) {
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
		parent = checkWarmMatchesCold(t, child, parent.Basis)
		cur = child
	}
}

func TestSolveFromMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		warmChain(t, rng, randomInequalityLP(rng))
		warmChain(t, rng, randomEqualityLP(rng))
	}
}

func FuzzSolveFrom(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, eq bool) {
		rng := rand.New(rand.NewSource(seed))
		p := randomInequalityLP(rng)
		if eq {
			p = randomEqualityLP(rng)
		}
		warmChain(t, rng, p)
	})
}

// warmOnly solves child from basis without the cold fallback; ok reports
// whether the warm path itself answered.
func warmOnly(t *testing.T, child *Problem, basis *Basis) (Result, bool) {
	t.Helper()
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
	var w Workspace
	return w.warm(child, basis)
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
// workspace: nothing from an earlier solve may leak into a later one.
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
		got, err := w.SolveFrom(child, parent.Basis)
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
				got, err := w.SolveFrom(child, parent.Basis)
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
