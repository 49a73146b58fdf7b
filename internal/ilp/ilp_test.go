package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10x1+13x2+7x3 s.t. 3x1+4x2+2x3 <= 6, binary.
	// Best: x1+x3 (w=5, v=17) vs x2+x3 (w=6, v=20) -> 20.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-10, -13, -7},
		A:   [][]float64{{3, 4, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{6},
		U:   []float64{1, 1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+20) > 1e-6 {
		t.Fatalf("status=%v obj=%f, want optimal -20", r.Status, r.Obj)
	}
	want := []float64{0, 1, 1}
	for j := range want {
		if math.Abs(r.X[j]-want[j]) > 1e-6 {
			t.Errorf("x[%d] = %f, want %f", j, r.X[j], want[j])
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// LP optimum fractional: min -x1-x2 s.t. 2x1+2x2 <= 3, binary.
	// LP gives 1.5; ILP must give exactly one variable set.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-1, -1},
		A:   [][]float64{{2, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{3},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+1) > 1e-6 {
		t.Fatalf("obj = %f, want -1", r.Obj)
	}
}

func TestInfeasibleILP(t *testing.T) {
	// x1 + x2 = 1.5 has no binary solution.
	m := &Model{Problem: lp.Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}},
		Rel: []lp.Rel{lp.EQ},
		B:   []float64{1.5},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != InfeasibleProven {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestMixedInteger(t *testing.T) {
	// x integer, y continuous: min -y s.t. y <= x + 0.5, x <= 2.3, y <= 9.
	// x integer <= 2.3 -> x=2, y=2.5.
	m := &Model{
		Problem: lp.Problem{
			C:   []float64{0, -1},
			A:   [][]float64{{-1, 1}, {1, 0}},
			Rel: []lp.Rel{lp.LE, lp.LE},
			B:   []float64{0.5, 2.3},
			U:   []float64{10, 9},
		},
		Integer: []bool{true, false},
	}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.X[0]-2) > 1e-6 || math.Abs(r.X[1]-2.5) > 1e-6 {
		t.Fatalf("got %v %v, want x=2 y=2.5", r.Status, r.X)
	}
}

func TestWarmStartPrunes(t *testing.T) {
	m := &Model{Problem: lp.Problem{
		C:   []float64{-10, -13, -7},
		A:   [][]float64{{3, 4, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{6},
		U:   []float64{1, 1, 1},
	}}
	cold, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(m, Options{
		HasWarm: true,
		WarmObj: -20,
		WarmX:   []float64{0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Obj != -20 || warm.Status != OptimalProven {
		t.Fatalf("warm solve lost the optimum: %v %f", warm.Status, warm.Obj)
	}
	if warm.Nodes > cold.Nodes {
		t.Errorf("warm start explored more nodes (%d) than cold (%d)", warm.Nodes, cold.Nodes)
	}
}

func TestWarmXLengthChecked(t *testing.T) {
	// An unimprovable warm start used to come back as Result.X verbatim,
	// so a short WarmX surfaced as a wrong-length solution.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-10, -13, -7},
		A:   [][]float64{{3, 4, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{6},
		U:   []float64{1, 1, 1},
	}}
	for _, x := range [][]float64{nil, {0, 1}, {0, 1, 1, 0}} {
		if _, err := Solve(m, Options{HasWarm: true, WarmObj: -20, WarmX: x}); err == nil {
			t.Errorf("WarmX of length %d accepted for 3 variables", len(x))
		}
	}
}

func TestNodeBudgetReportsBound(t *testing.T) {
	// A larger knapsack; a 1-node budget cannot prove optimality.
	rng := rand.New(rand.NewSource(3))
	n := 25
	m := &Model{Problem: lp.Problem{
		C:   make([]float64, n),
		A:   [][]float64{make([]float64, n)},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{25},
		U:   make([]float64, n),
	}}
	for j := 0; j < n; j++ {
		m.C[j] = -float64(1 + rng.Intn(20))
		m.A[0][j] = float64(1 + rng.Intn(10))
		m.U[j] = 1
	}
	r, err := Solve(m, Options{NodeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status == OptimalProven {
		t.Skip("instance solved at the root; budget path not exercised")
	}
	if r.Status != NoSolution && r.Status != FeasibleBudget {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Status == FeasibleBudget && r.BoundObj > r.Obj+1e-9 {
		t.Errorf("bound %f above incumbent %f", r.BoundObj, r.Obj)
	}
}

// exhaustive solves a pure binary program by enumeration.
func exhaustive(m *Model) (float64, []float64, bool) {
	n := len(m.C)
	best := math.Inf(1)
	var bestX []float64
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		if !satisfies(m, x) {
			continue
		}
		obj := 0.0
		for j := 0; j < n; j++ {
			obj += m.C[j] * x[j]
		}
		if obj < best {
			best = obj
			bestX = x
		}
	}
	return best, bestX, bestX != nil
}

// satisfies reports whether x meets every row of m.
func satisfies(m *Model, x []float64) bool {
	for i, row := range m.A {
		v := 0.0
		for j := range row {
			v += row[j] * x[j]
		}
		switch m.Rel[i] {
		case lp.LE:
			if v > m.B[i]+1e-9 {
				return false
			}
		case lp.GE:
			if v < m.B[i]-1e-9 {
				return false
			}
		case lp.EQ:
			if math.Abs(v-m.B[i]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// randomBinaryModel draws a small pure binary program (3-10 variables,
// 1-4 LE/GE rows) that the exhaustive oracle can enumerate.
func randomBinaryModel(rng *rand.Rand) *Model {
	n := 3 + rng.Intn(8) // up to 10 binaries -> 1024 points
	rows := 1 + rng.Intn(4)
	m := &Model{Problem: lp.Problem{
		C:   make([]float64, n),
		A:   make([][]float64, rows),
		Rel: make([]lp.Rel, rows),
		B:   make([]float64, rows),
		U:   make([]float64, n),
	}}
	for j := 0; j < n; j++ {
		m.C[j] = float64(rng.Intn(21) - 10)
		m.U[j] = 1
	}
	for i := 0; i < rows; i++ {
		m.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m.A[i][j] = float64(rng.Intn(9) - 3)
		}
		switch rng.Intn(3) {
		case 0:
			m.Rel[i] = lp.LE
			m.B[i] = float64(rng.Intn(2 * n))
		case 1:
			m.Rel[i] = lp.GE
			m.B[i] = float64(-rng.Intn(n))
		default:
			m.Rel[i] = lp.LE
			m.B[i] = float64(rng.Intn(n))
		}
	}
	return m
}

func TestAgainstExhaustiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		m := randomBinaryModel(rng)
		got, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, feasible := exhaustive(m)
		if !feasible {
			if got.Status != InfeasibleProven {
				t.Fatalf("trial %d: oracle infeasible, solver says %v", trial, got.Status)
			}
			continue
		}
		if got.Status != OptimalProven {
			t.Fatalf("trial %d: status %v on a feasible instance", trial, got.Status)
		}
		if math.Abs(got.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: solver %f vs oracle %f", trial, got.Obj, want)
		}
	}
}

func TestGap(t *testing.T) {
	r := Result{Status: OptimalProven, Obj: 5, BoundObj: 5}
	if r.Gap() != 0 {
		t.Error("proven optimum must have zero gap")
	}
	r = Result{Status: FeasibleBudget, Obj: 10, BoundObj: 8}
	if g := r.Gap(); math.Abs(g-0.2) > 1e-12 {
		t.Errorf("gap = %f, want 0.2", g)
	}
}

// The TestPresolve* models are the shapes a presolve pass reduces before
// search: forced binaries, a redundant row, a singleton row, an
// activity-infeasible row and a duality-fixable column. Plain branch and
// bound must get each one right.

func TestPresolveFixesForcedBinaries(t *testing.T) {
	// x1 + x2 >= 2 forces both binaries to 1.
	m := &Model{Problem: lp.Problem{
		C:   []float64{3, 5},
		A:   [][]float64{{1, 1}},
		Rel: []lp.Rel{lp.GE},
		B:   []float64{2},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj-8) > 1e-9 {
		t.Fatalf("status=%v obj=%f, want optimal 8", r.Status, r.Obj)
	}
	if r.X[0] != 1 || r.X[1] != 1 {
		t.Fatalf("x = %v, want [1 1]", r.X)
	}
}

func TestPresolveDropsRedundantRow(t *testing.T) {
	// x1 + x2 + x3 <= 5 can never bind for binaries; the knapsack result
	// must be unaffected.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-10, -13, -7},
		A:   [][]float64{{3, 4, 2}, {1, 1, 1}},
		Rel: []lp.Rel{lp.LE, lp.LE},
		B:   []float64{6, 5},
		U:   []float64{1, 1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+20) > 1e-6 {
		t.Fatalf("status=%v obj=%f, want optimal -20", r.Status, r.Obj)
	}
}

func TestPresolveSingletonRow(t *testing.T) {
	// 2*x2 <= 1 is a singleton: binary x2 must be 0.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-1, -10},
		A:   [][]float64{{0, 2}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{1},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+1) > 1e-9 {
		t.Fatalf("status=%v obj=%f, want optimal -1", r.Status, r.Obj)
	}
	if r.X[1] != 0 {
		t.Fatalf("x2 = %f, want 0", r.X[1])
	}
}

func TestPresolveProvesInfeasible(t *testing.T) {
	// Max activity of x1+x2 is 2 < 3.
	m := &Model{Problem: lp.Problem{
		C:   []float64{1, 1},
		A:   [][]float64{{1, 1}},
		Rel: []lp.Rel{lp.GE},
		B:   []float64{3},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != InfeasibleProven {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestPresolveDualityFixing(t *testing.T) {
	// x2 has positive cost and only helps constraints when low, so some
	// optimum has it at its lower bound.
	m := &Model{Problem: lp.Problem{
		C:   []float64{-2, 4},
		A:   [][]float64{{1, 1}},
		Rel: []lp.Rel{lp.LE},
		B:   []float64{1},
		U:   []float64{1, 1},
	}}
	r, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != OptimalProven || math.Abs(r.Obj+2) > 1e-9 {
		t.Fatalf("status=%v obj=%f, want optimal -2", r.Status, r.Obj)
	}
	if r.X[1] != 0 {
		t.Fatalf("x2 = %f, want 0", r.X[1])
	}
}

// fuzzModel decodes bytes into a pure binary program of 1-10 variables and
// 1-6 mixed LE/GE/EQ rows; missing bytes read as zero.
func fuzzModel(data []byte) *Model {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%10
	rows := 1 + next()%6
	m := &Model{Problem: lp.Problem{
		C:   make([]float64, n),
		A:   make([][]float64, rows),
		Rel: make([]lp.Rel, rows),
		B:   make([]float64, rows),
		U:   make([]float64, n),
	}}
	for j := range m.C {
		m.C[j] = float64(next()%21 - 10)
		m.U[j] = 1
	}
	for i := range m.A {
		m.A[i] = make([]float64, n)
		for j := range m.A[i] {
			m.A[i][j] = float64(next()%9 - 4)
		}
		m.Rel[i] = []lp.Rel{lp.LE, lp.GE, lp.EQ}[next()%3]
		m.B[i] = float64(next()%(2*n+1) - n)
	}
	return m
}

// FuzzILP checks Solve on small random binary programs against exhaustive
// enumeration, under both branching rules and one or two workers. A
// proven status must match the oracle's; the node budget is larger than
// any complete tree over 10 binaries, so every run must terminate.
func FuzzILP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 7, 13, 6, 5, 1, 9})
	f.Add([]byte{9, 5, 3, 17, 0, 20, 11, 4, 8, 1, 16, 2, 7, 0, 6, 5, 3, 1, 8, 2, 4, 6, 0, 7, 1, 9, 30, 12})
	f.Add([]byte{4, 2, 20, 0, 10, 5, 8, 8, 8, 8, 0, 3, 0, 0, 0, 0, 2, 5, 1, 7, 3, 5, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rule, workers int
		if len(data) > 0 {
			rule, workers = int(data[0]&1), 1+int(data[0]>>1&1)
			data = data[1:]
		}
		m := fuzzModel(data)
		r, err := Solve(m, Options{
			NodeLimit: 1 << 12,
			Workers:   workers,
			Branching: []string{"pseudocost", "mostfrac"}[rule],
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _, feasible := exhaustive(m)
		switch r.Status {
		case InfeasibleProven:
			if feasible {
				t.Fatalf("solver says infeasible, oracle optimum %v", want)
			}
			return
		case OptimalProven:
			if !feasible {
				t.Fatalf("solver says optimal %v, oracle infeasible", r.Obj)
			}
			if math.Abs(r.Obj-want) > 1e-6 {
				t.Fatalf("solver %v vs oracle %v", r.Obj, want)
			}
		case FeasibleBudget:
			if !feasible || r.Obj < want-1e-6 || r.BoundObj > want+1e-6 {
				t.Fatalf("budgeted incumbent %v, bound %v vs oracle %v (feasible %v)", r.Obj, r.BoundObj, want, feasible)
			}
		case NoSolution:
			return
		default:
			t.Fatalf("status %v on a bounded binary program", r.Status)
		}
		// The incumbent is a binary point that meets every row and
		// prices at Obj.
		obj := 0.0
		for j, x := range r.X {
			if x != 0 && x != 1 {
				t.Fatalf("x[%d] = %v is not binary", j, x)
			}
			obj += m.C[j] * x
		}
		if math.Abs(obj-r.Obj) > 1e-6 {
			t.Fatalf("incumbent prices at %v, Obj %v", obj, r.Obj)
		}
		if !satisfies(m, r.X) {
			t.Fatalf("incumbent %v violates a row", r.X)
		}
	})
}
