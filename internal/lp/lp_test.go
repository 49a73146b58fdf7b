package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) Result {
	t.Helper()
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	for i, row := range p.A {
		v := 0.0
		for j := range row {
			v += row[j] * x[j]
		}
		switch p.Rel[i] {
		case LE:
			if v > p.B[i]+1e-6 {
				t.Errorf("row %d: %f > %f", i, v, p.B[i])
			}
		case GE:
			if v < p.B[i]-1e-6 {
				t.Errorf("row %d: %f < %f", i, v, p.B[i])
			}
		case EQ:
			if math.Abs(v-p.B[i]) > 1e-6 {
				t.Errorf("row %d: %f != %f", i, v, p.B[i])
			}
		}
	}
	for j := range x {
		if x[j] < p.lower(j)-1e-6 || x[j] > p.upper(j)+1e-6 {
			t.Errorf("x[%d] = %f outside [%g, %g]", j, x[j], p.lower(j), p.upper(j))
		}
	}
}

func TestTextbookLP(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 => min -3x-5y, opt (2,6), -36.
	p := &Problem{
		C: []float64{-3, -5},
		A: [][]float64{
			{1, 0},
			{0, 2},
			{3, 2},
		},
		Rel: []Rel{LE, LE, LE},
		B:   []float64{4, 12, 18},
	}
	r := solveOK(t, p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(r.Obj+36) > 1e-6 {
		t.Errorf("obj = %f, want -36", r.Obj)
	}
	if math.Abs(r.X[0]-2) > 1e-6 || math.Abs(r.X[1]-6) > 1e-6 {
		t.Errorf("x = %v, want (2,6)", r.X)
	}
	checkFeasible(t, p, r.X)
}

func TestEqualityAndGE(t *testing.T) {
	// min x+2y s.t. x+y = 10, x >= 3, y >= 2 -> x=8, y=2, obj 12.
	p := &Problem{
		C:   []float64{1, 2},
		A:   [][]float64{{1, 1}, {1, 0}, {0, 1}},
		Rel: []Rel{EQ, GE, GE},
		B:   []float64{10, 3, 2},
	}
	r := solveOK(t, p)
	if r.Status != Optimal || math.Abs(r.Obj-12) > 1e-6 {
		t.Fatalf("status=%v obj=%f, want optimal 12", r.Status, r.Obj)
	}
	checkFeasible(t, p, r.X)
}

func TestUpperBoundsRespected(t *testing.T) {
	// min -x s.t. x <= 100, with variable bound u = 3: answer 3.
	p := &Problem{
		C:   []float64{-1},
		A:   [][]float64{{1}},
		Rel: []Rel{LE},
		B:   []float64{100},
		U:   []float64{3},
	}
	r := solveOK(t, p)
	if r.Status != Optimal || math.Abs(r.X[0]-3) > 1e-9 {
		t.Fatalf("x = %v, want 3", r.X)
	}
}

func TestBoundFlipPath(t *testing.T) {
	// All variables bounded, optimum forces several to their upper bound.
	p := &Problem{
		C:   []float64{-1, -1, -1},
		A:   [][]float64{{1, 1, 1}},
		Rel: []Rel{LE},
		B:   []float64{2.5},
		U:   []float64{1, 1, 1},
	}
	r := solveOK(t, p)
	if r.Status != Optimal || math.Abs(r.Obj+2.5) > 1e-6 {
		t.Fatalf("obj = %f, want -2.5", r.Obj)
	}
	checkFeasible(t, p, r.X)
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x+y with x,y in [2,5], x+y >= 6: obj 6 (many optima).
	p := &Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}},
		Rel: []Rel{GE},
		B:   []float64{6},
		L:   []float64{2, 2},
		U:   []float64{5, 5},
	}
	r := solveOK(t, p)
	if r.Status != Optimal || math.Abs(r.Obj-6) > 1e-6 {
		t.Fatalf("status=%v obj=%f, want optimal 6", r.Status, r.Obj)
	}
	checkFeasible(t, p, r.X)
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		C:   []float64{1},
		A:   [][]float64{{1}, {1}},
		Rel: []Rel{LE, GE},
		B:   []float64{1, 2},
	}
	r := solveOK(t, p)
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestInfeasibleByBounds(t *testing.T) {
	// x <= 1 but x must be >= 2 via its lower bound.
	p := &Problem{
		C:   []float64{1},
		A:   [][]float64{{1}},
		Rel: []Rel{LE},
		B:   []float64{1},
		L:   []float64{2},
		U:   []float64{5},
	}
	r := solveOK(t, p)
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		C:   []float64{-1},
		A:   [][]float64{{-1}},
		Rel: []Rel{LE},
		B:   []float64{0},
	}
	r := solveOK(t, p)
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	p := &Problem{C: []float64{1, -2}, U: []float64{10, 7}}
	r := solveOK(t, p)
	if r.Status != Optimal || r.X[0] != 0 || r.X[1] != 7 {
		t.Fatalf("got %v %v", r.Status, r.X)
	}
	p2 := &Problem{C: []float64{-1}}
	r2 := solveOK(t, p2)
	if r2.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r2.Status)
	}
}

func TestDegenerateRedundantRows(t *testing.T) {
	p := &Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}, {1, 1}, {2, 2}},
		Rel: []Rel{GE, GE, GE},
		B:   []float64{4, 4, 8},
		U:   []float64{10, 10},
	}
	r := solveOK(t, p)
	if r.Status != Optimal || math.Abs(r.Obj-4) > 1e-6 {
		t.Fatalf("status=%v obj=%f, want optimal 4", r.Status, r.Obj)
	}
}

func TestValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// cover is x1 + x2 >= 1 over x >= 0, edited per case.
	cover := func(edit func(p *Problem)) *Problem {
		p := &Problem{C: []float64{1, 1}, A: [][]float64{{1, 1}}, Rel: []Rel{GE}, B: []float64{1}}
		edit(p)
		return p
	}
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"ragged matrix", &Problem{C: []float64{1}, A: [][]float64{{1, 2}}, Rel: []Rel{LE}, B: []float64{1}}},
		{"empty bound interval", &Problem{C: []float64{1}, L: []float64{3}, U: []float64{1}}},
		{"bound interval inverted by 1e-9", &Problem{C: []float64{1, 1}, L: []float64{0.5, 0}, U: []float64{0.5 - 1e-9, 10}}},
		{"NaN rhs", cover(func(p *Problem) { p.B[0] = nan })},
		{"infinite rhs", cover(func(p *Problem) { p.B[0] = -inf })},
		{"infinite coefficient", cover(func(p *Problem) { p.A[0][1] = inf })},
		{"NaN coefficient", cover(func(p *Problem) { p.A[0][0] = nan })},
		{"infinite cost", cover(func(p *Problem) { p.C[1] = -inf })},
		{"NaN cost", cover(func(p *Problem) { p.C[0] = nan })},
		{"-Inf lower bound", cover(func(p *Problem) { p.L = []float64{-inf, 0} })},
		{"+Inf lower bound", cover(func(p *Problem) { p.L = []float64{0, inf}; p.U = []float64{inf, inf} })},
		{"NaN lower bound", cover(func(p *Problem) { p.L = []float64{nan, 0} })},
		{"NaN upper bound", cover(func(p *Problem) { p.U = []float64{1, nan} })},
		{"unknown relation", cover(func(p *Problem) { p.Rel[0] = Rel(7) })},
	} {
		for _, solve := range []struct {
			name string
			fn   func(*Problem) (Result, error)
		}{
			{"Solve", Solve},
			{"SolveFrom", func(p *Problem) (Result, error) { return solveFrom(p, nil) }},
			{"node solve", nodeSolve},
		} {
			_, err := solve.fn(tc.p)
			var ie *InputError
			if !errors.As(err, &ie) {
				t.Errorf("%s: %s: err = %v, want *InputError", tc.name, solve.name, err)
			}
		}
	}
}

// nodeSolve solves p the way a branch-and-bound node does: p without its
// bounds is prepared, then solved under them. A malformed C, A, Rel or B
// fails in Prepare, a malformed bound in Workspace.SolveFrom.
func nodeSolve(p *Problem) (Result, error) {
	q := *p
	q.L, q.U = nil, nil
	pp, err := Prepare(&q)
	if err != nil {
		return Result{}, err
	}
	var w Workspace
	return w.SolveFrom(pp, p.L, p.U, nil)
}

// bruteForce finds the optimum by enumerating basic feasible points: all
// choices of n active constraints among rows and bounds, solving the n x n
// system, and keeping the best feasible solution.
func bruteForce(p *Problem) (float64, bool) {
	n := len(p.C)
	type constraintRow struct {
		a []float64
		b float64
	}
	var cons []constraintRow
	for i, row := range p.A {
		cons = append(cons, constraintRow{row, p.B[i]})
	}
	for j := 0; j < n; j++ {
		lo := make([]float64, n)
		lo[j] = 1
		cons = append(cons, constraintRow{lo, p.lower(j)})
		if !math.IsInf(p.upper(j), 1) {
			hi := make([]float64, n)
			hi[j] = 1
			cons = append(cons, constraintRow{hi, p.upper(j)})
		}
	}
	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			// Solve the active system by Gaussian elimination.
			a := make([][]float64, n)
			for r := 0; r < n; r++ {
				a[r] = append(append([]float64{}, cons[idx[r]].a...), cons[idx[r]].b)
			}
			x, ok := gauss(a)
			if !ok {
				return
			}
			feas := true
			for i, row := range p.A {
				v := 0.0
				for j := range row {
					v += row[j] * x[j]
				}
				switch p.Rel[i] {
				case LE:
					feas = feas && v <= p.B[i]+1e-7
				case GE:
					feas = feas && v >= p.B[i]-1e-7
				case EQ:
					feas = feas && math.Abs(v-p.B[i]) <= 1e-7
				}
			}
			for j := 0; j < n; j++ {
				feas = feas && x[j] >= p.lower(j)-1e-7 && x[j] <= p.upper(j)+1e-7
			}
			if feas {
				obj := 0.0
				for j := 0; j < n; j++ {
					obj += p.C[j] * x[j]
				}
				if obj < best {
					best = obj
					found = true
				}
			}
			return
		}
		for i := start; i < len(cons); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

func gauss(a [][]float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-10 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		x[r] = a[r][n] / a[r][r]
	}
	return x, true
}

// randomInequalityLP draws a small feasible box-bounded LP of <= and >=
// rows around a random interior point.
func randomInequalityLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(3)
	m := 1 + rng.Intn(4)
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Rel, m),
		B:   make([]float64, m),
		U:   make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = float64(rng.Intn(11) - 5)
		p.U[j] = float64(1 + rng.Intn(5))
	}
	// A feasible point inside the box guarantees feasibility.
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = rng.Float64() * p.U[j]
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		v := 0.0
		for j := 0; j < n; j++ {
			p.A[i][j] = float64(rng.Intn(7) - 3)
			v += p.A[i][j] * x0[j]
		}
		if rng.Intn(2) == 0 {
			p.Rel[i] = LE
			p.B[i] = v + rng.Float64()
		} else {
			p.Rel[i] = GE
			p.B[i] = v - rng.Float64()
		}
	}
	return p
}

// randomEqualityLP draws a small feasible box-bounded LP with one = row
// and one <= row.
func randomEqualityLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(3)
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, 2),
		Rel: []Rel{EQ, LE},
		B:   make([]float64, 2),
		U:   make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = float64(rng.Intn(9) - 4)
		p.U[j] = float64(1 + rng.Intn(4))
	}
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = rng.Float64() * p.U[j]
	}
	for i := 0; i < 2; i++ {
		p.A[i] = make([]float64, n)
		v := 0.0
		for j := 0; j < n; j++ {
			p.A[i][j] = float64(rng.Intn(5) - 2)
			v += p.A[i][j] * x0[j]
		}
		p.B[i] = v
		if p.Rel[i] == LE {
			p.B[i] += rng.Float64()
		}
	}
	return p
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := randomInequalityLP(rng)
		r := solveOK(t, p)
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v on a feasible bounded problem", trial, r.Status)
		}
		checkFeasible(t, p, r.X)
		want, ok := bruteForce(p)
		if !ok {
			t.Fatalf("trial %d: oracle found no vertex", trial)
		}
		if math.Abs(r.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: simplex %f vs oracle %f", trial, r.Obj, want)
		}
	}
}

func TestEqualityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		p := randomEqualityLP(rng)
		r := solveOK(t, p)
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		checkFeasible(t, p, r.X)
		want, ok := bruteForce(p)
		if ok && math.Abs(r.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: simplex %f vs oracle %f", trial, r.Obj, want)
		}
	}
}

func TestLargeRandomSparseLP(t *testing.T) {
	// A bigger instance for robustness: 150 rows x 120 bounded vars.
	rng := rand.New(rand.NewSource(17))
	n, m := 120, 150
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Rel, m),
		B:   make([]float64, m),
		U:   make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.Float64()*4 - 2
		p.U[j] = 1
		x0[j] = rng.Float64()
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		v := 0.0
		for k := 0; k < 6; k++ {
			j := rng.Intn(n)
			p.A[i][j] = rng.Float64()*2 - 1
		}
		for j := 0; j < n; j++ {
			v += p.A[i][j] * x0[j]
		}
		if rng.Intn(2) == 0 {
			p.Rel[i], p.B[i] = LE, v+rng.Float64()*0.5
		} else {
			p.Rel[i], p.B[i] = GE, v-rng.Float64()*0.5
		}
	}
	r := solveOK(t, p)
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	checkFeasible(t, p, r.X)
	// Optimality sanity: no feasible random perturbation improves.
	obj0 := 0.0
	for j := range x0 {
		obj0 += p.C[j] * x0[j]
	}
	if r.Obj > obj0+1e-6 {
		t.Errorf("optimum %f worse than interior point %f", r.Obj, obj0)
	}
}
