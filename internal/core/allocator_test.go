package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// randomTimed builds and places a random combinational DAG on lib
// deterministically from seed, returning the placement and its nominal
// timing.
func randomTimed(tb testing.TB, lib *cell.Library, seed int64) (*place.Placement, *sta.Timing) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder("rand", lib)
	nPI := 3 + rng.Intn(4)
	pool := make([]netlist.Signal, 0, 160)
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.PI("p"+string(rune('0'+i))))
	}
	nG := 30 + rng.Intn(90)
	for i := 0; i < nG; i++ {
		x := pool[rng.Intn(len(pool))]
		y := pool[rng.Intn(len(pool))]
		var s netlist.Signal
		switch rng.Intn(5) {
		case 0:
			s = b.Nand(x, y)
		case 1:
			s = b.Nor(x, y)
		case 2:
			s = b.And(x, y)
		case 3:
			s = b.DFF(x)
		default:
			s = b.Not(x)
		}
		pool = append(pool, s)
	}
	for i := nPI; i < len(pool); i += 3 {
		b.Output("o"+string(rune('a'+i%26))+string(rune('0'+i/26%10)), pool[i])
	}
	d, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Place(d, lib, place.Options{ForceRows: 3 + rng.Intn(5)})
	if err != nil {
		tb.Fatal(err)
	}
	tm, err := sta.Analyze(pl, sta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pl, tm
}

// requireProblemsEqual asserts the materialized instance matches a fresh
// buildProblem bit for bit: same constraints, same merge decisions, same
// requirement values, same indices. Any drift is a real divergence — both
// sides compute the same float operations in the same order.
func requireProblemsEqual(tb testing.TB, want, got *Instance, label string) {
	tb.Helper()
	if want.Pl != got.Pl || want.Tm != got.Tm || want.Grid != got.Grid {
		tb.Fatalf("%s: placement, timing or bias grid differ", label)
	}
	if want.Beta != got.Beta || want.MaxClusters != got.MaxClusters ||
		want.MaxBiasPairs != got.MaxBiasPairs || want.N != got.N || want.P != got.P {
		tb.Fatalf("%s: header mismatch: want (%v %d %d %d %d) got (%v %d %d %d %d)", label,
			want.Beta, want.MaxClusters, want.MaxBiasPairs, want.N, want.P,
			got.Beta, got.MaxClusters, got.MaxBiasPairs, got.N, got.P)
	}
	if want.RawViolations != got.RawViolations {
		tb.Fatalf("%s: RawViolations %d, want %d", label, got.RawViolations, want.RawViolations)
	}
	if len(want.Constraints) != len(got.Constraints) {
		tb.Fatalf("%s: %d constraints, want %d", label, len(got.Constraints), len(want.Constraints))
	}
	for k := range want.Constraints {
		wc, gc := &want.Constraints[k], &got.Constraints[k]
		if wc.ReqPS != gc.ReqPS || wc.PathIdx != gc.PathIdx {
			tb.Fatalf("%s: constraint %d (req, path) = (%v, %d), want (%v, %d)",
				label, k, gc.ReqPS, gc.PathIdx, wc.ReqPS, wc.PathIdx)
		}
		if len(wc.Rows) != len(gc.Rows) {
			tb.Fatalf("%s: constraint %d has %d rows, want %d", label, k, len(gc.Rows), len(wc.Rows))
		}
		for i := range wc.Rows {
			wr, gr := &wc.Rows[i], &gc.Rows[i]
			if wr.Row != gr.Row {
				tb.Fatalf("%s: constraint %d row %d = %d, want %d", label, k, i, gr.Row, wr.Row)
			}
			for j := range wr.DeltaPS {
				if wr.DeltaPS[j] != gr.DeltaPS[j] {
					tb.Fatalf("%s: constraint %d row %d delta[%d] = %v, want %v",
						label, k, i, j, gr.DeltaPS[j], wr.DeltaPS[j])
				}
			}
		}
	}
	for i := range want.Involved {
		if want.Involved[i] != got.Involved[i] {
			tb.Fatalf("%s: Involved[%d] = %v, want %v", label, i, got.Involved[i], want.Involved[i])
		}
	}
	for i := range want.RowLeakNW {
		for j := range want.RowLeakNW[i] {
			if want.RowLeakNW[i][j] != got.RowLeakNW[i][j] {
				tb.Fatalf("%s: RowLeakNW[%d][%d] = %v, want %v",
					label, i, j, got.RowLeakNW[i][j], want.RowLeakNW[i][j])
			}
		}
	}
	for i := 0; i <= want.N; i++ {
		if want.rowConsStart[i] != got.rowConsStart[i] {
			tb.Fatalf("%s: rowConsStart[%d] = %d, want %d",
				label, i, got.rowConsStart[i], want.rowConsStart[i])
		}
	}
	for i := range want.rowConsRefs {
		if want.rowConsRefs[i] != got.rowConsRefs[i] {
			tb.Fatalf("%s: rowConsRefs[%d] = %+v, want %+v",
				label, i, got.rowConsRefs[i], want.rowConsRefs[i])
		}
	}
}

// requireSolutionsEqual asserts two solutions are identical in every field,
// exact to the bit.
func requireSolutionsEqual(tb testing.TB, want, got *Solution, label string) {
	tb.Helper()
	if want == nil || got == nil {
		if want != got {
			tb.Fatalf("%s: solution presence diverged (want %v, got %v)", label, want != nil, got != nil)
		}
		return
	}
	if want.ExtraLeakNW != got.ExtraLeakNW || want.TotalLeakNW != got.TotalLeakNW ||
		want.Clusters != got.Clusters || want.Method != got.Method || want.Proven != got.Proven {
		tb.Fatalf("%s: solution diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
	if len(want.Assign) != len(got.Assign) {
		tb.Fatalf("%s: assignment length %d, want %d", label, len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			tb.Fatalf("%s: assign[%d] = %d, want %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
}

// randomOpts draws a random (beta, caps) point.
func randomOpts(rng *rand.Rand) Options {
	c := 2 + rng.Intn(3)
	pairs := 0 // default 2
	if rng.Intn(2) == 0 {
		pairs = 1 + rng.Intn(c)
	}
	return Options{
		Beta:         0.02 + rng.Float64()*0.13,
		MaxClusters:  c,
		MaxBiasPairs: pairs,
	}
}

// TestAllocatorMatchesBuildProblem is the differential harness of the
// batched allocation path: across random placements and random (beta, C,
// pairs) points, one dirty, continually reused Instance must materialize
// problems bit-identical to fresh buildProblem calls and solve them to
// bit-identical heuristic and single-BB solutions.
func TestAllocatorMatchesBuildProblem(t *testing.T) {
	lib := cell.Default()
	rng := rand.New(rand.NewSource(17))
	inst := (*Instance)(nil) // deliberately reused — and dirtied — across everything
	for trial := 0; trial < 12; trial++ {
		pl, tm := randomTimed(t, lib, int64(trial))
		al, err := NewAllocator(pl, tm)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			opts := randomOpts(rng)
			want, err := buildProblem(pl, tm, opts)
			if err != nil {
				t.Fatal(err)
			}
			inst, err = al.At(opts, inst)
			if err != nil {
				t.Fatal(err)
			}
			requireProblemsEqual(t, want, inst, "materialize")

			wantH, errW := want.Solve(nil)
			gotH, errG := inst.Solve(nil)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("heuristic error diverged: %v vs %v", errW, errG)
			}
			if errW == nil {
				requireSolutionsEqual(t, wantH, gotH, "heuristic")
			}

			wantS, errW := want.SingleBB()
			gotS, errG := inst.SingleBB()
			if (errW == nil) != (errG == nil) {
				t.Fatalf("single-BB error diverged: %v vs %v", errW, errG)
			}
			if errW == nil {
				requireSolutionsEqual(t, wantS, gotS, "single-bb")
			}
		}
	}
}

// TestAllocatorMatchesBuildProblemILP runs the differential harness through
// the exact allocator on small coarse-grid instances (where branch and
// bound proves optimality quickly): warm-started from each side's own
// heuristic, the two ILP paths must agree bit for bit.
func TestAllocatorMatchesBuildProblemILP(t *testing.T) {
	coarse, err := cell.NewLibrary(tech.Default45nm(), tech.BiasGrid{StepV: 0.25, MaxV: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var inst *Instance
	checked := 0
	for trial := 0; trial < 8 && checked < 4; trial++ {
		pl, tm := randomTimed(t, coarse, int64(200+trial))
		al, err := NewAllocator(pl, tm)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Beta: 0.03 + rng.Float64()*0.07, MaxClusters: 2 + rng.Intn(2)}
		want, err := buildProblem(pl, tm, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumConstraints() == 0 {
			continue
		}
		inst, err = al.At(opts, inst)
		if err != nil {
			t.Fatal(err)
		}
		wantH, err := want.Solve(nil)
		if err != nil {
			continue // beyond compensation range; ILP infeasible too
		}
		wantILP, wantRes, err := want.SolveILP(ILPOptions{WarmStart: wantH})
		if err != nil {
			t.Fatal(err)
		}
		gotILP, err := inst.Solve(ILPSolver{})
		if err != nil {
			t.Fatal(err)
		}
		requireSolutionsEqual(t, wantILP, gotILP, "ilp")
		if inst.ILPResult == nil || inst.ILPResult.Status != wantRes.Status ||
			inst.ILPResult.Nodes != wantRes.Nodes {
			t.Fatalf("ILP result diverged: %+v vs %+v", inst.ILPResult, wantRes)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no instance exercised the ILP differential")
	}
}

// TestAllocatorValidation pins the error contract of the batched path.
func TestAllocatorValidation(t *testing.T) {
	lib := cell.Default()
	pl, tm := randomTimed(t, lib, 1)
	if _, err := NewAllocator(nil, tm); err == nil {
		t.Error("nil placement accepted")
	}
	pl2, _ := randomTimed(t, lib, 2)
	if _, err := NewAllocator(pl2, tm); err == nil {
		t.Error("foreign timing accepted")
	}
	al, err := NewAllocator(pl, tm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.At(Options{Beta: -1}, nil); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := al.At(Options{Beta: 0.05, MaxClusters: -1}, nil); err == nil {
		t.Error("negative MaxClusters accepted")
	}
	if _, err := al.At(Options{}, nil); err == nil {
		t.Error("zero beta accepted")
	}
	// SolveAt with an unknown-solver lookup is the caller's job; a nil
	// solver must mean the heuristic.
	sol, _, err := al.SolveAt(Options{Beta: 0.05}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != "heuristic" {
		t.Errorf("nil solver ran %q, want heuristic", sol.Method)
	}
}

// TestSolverRegistry pins the closed set of built-in solvers: ParseSolver
// knows exactly SolverNames ("" is the heuristic), threads the node budget
// into "ilp" alone, and every value it returns is a usable map key.
func TestSolverRegistry(t *testing.T) {
	names := SolverNames()
	if want := []string{"heuristic", "ilp", "local"}; !slices.Equal(names, want) {
		t.Errorf("SolverNames() = %v, want %v", names, want)
	}
	keys := map[Solver]string{}
	for name, want := range map[string]Solver{"": HeuristicSolver{}, "heuristic": HeuristicSolver{},
		"ilp": ILPSolver{NodeLimit: 7}, "local": LocalSolver{}} {
		s, err := ParseSolver(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if s != want {
			t.Errorf("ParseSolver(%q, 7) = %#v, want %#v", name, s, want)
		}
		keys[s] = name // panics on a value that cannot be a map key
	}
	if len(keys) != len(names) {
		t.Errorf("%d distinct solver keys, want %d: %v", len(keys), len(names), keys)
	}
	for _, bad := range []string{"no-such-solver", "race", "ILP"} {
		if _, err := ParseSolver(bad, 0); err == nil {
			t.Errorf("unknown solver %q accepted", bad)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("unhelpful unknown-solver error: %v", err)
		}
	}
}

// TestLocalSolverInvariants: the portfolio solver must return feasible
// allocations within the caps, never worse than the single-voltage
// baseline, deterministically.
func TestLocalSolverInvariants(t *testing.T) {
	lib := cell.Default()
	rng := rand.New(rand.NewSource(23))
	var inst *Instance
	exercised := 0
	for trial := 0; trial < 8; trial++ {
		pl, tm := randomTimed(t, lib, int64(100+trial))
		al, err := NewAllocator(pl, tm)
		if err != nil {
			t.Fatal(err)
		}
		opts := randomOpts(rng)
		var errAt error
		inst, errAt = al.At(opts, inst)
		if errAt != nil {
			t.Fatal(errAt)
		}
		if inst.NumConstraints() == 0 {
			continue
		}
		single, err := inst.SingleBB()
		if err != nil {
			continue // beyond the compensation range
		}
		singleExtra := single.ExtraLeakNW
		sol, err := inst.Solve(LocalSolver{})
		if err != nil {
			t.Fatalf("trial %d: local solver failed on feasible instance: %v", trial, err)
		}
		exercised++
		if !inst.CheckTiming(sol.Assign) {
			t.Fatalf("trial %d: local solution violates timing", trial)
		}
		if sol.Clusters > opts.MaxClusters {
			t.Fatalf("trial %d: %d clusters exceed C=%d", trial, sol.Clusters, opts.MaxClusters)
		}
		if pairs := BiasPairs(sol.Assign); pairs > inst.MaxBiasPairs {
			t.Fatalf("trial %d: %d bias pairs exceed cap %d", trial, pairs, inst.MaxBiasPairs)
		}
		if sol.ExtraLeakNW > singleExtra+1e-9 {
			t.Fatalf("trial %d: local leakage %f above single BB %f",
				trial, sol.ExtraLeakNW, singleExtra)
		}
		again, err := inst.Solve(LocalSolver{})
		if err != nil {
			t.Fatal(err)
		}
		requireSolutionsEqual(t, sol, again, "local determinism")
	}
	if exercised == 0 {
		t.Error("no instance exercised the local solver")
	}
}

// FuzzAllocatorSolveAt fuzzes the differential property: for any (design
// seed, option seed), a dirty reused Instance must materialize and solve
// bit-identically to a fresh buildProblem and its heuristic solve.
func FuzzAllocatorSolveAt(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(2), int64(7))
	f.Add(int64(42), int64(99))
	f.Add(int64(-5), int64(0))
	f.Add(int64(12345), int64(-8))
	lib := cell.Default()
	f.Fuzz(func(t *testing.T, designSeed, optSeed int64) {
		pl, tm := randomTimed(t, lib, designSeed)
		al, err := NewAllocator(pl, tm)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(optSeed))
		var inst *Instance
		for round := 0; round < 3; round++ {
			opts := randomOpts(rng)
			if math.IsNaN(opts.Beta) {
				t.Skip("degenerate beta")
			}
			want, err := buildProblem(pl, tm, opts)
			if err != nil {
				t.Fatal(err)
			}
			inst, err = al.At(opts, inst)
			if err != nil {
				t.Fatal(err)
			}
			requireProblemsEqual(t, want, inst, "fuzz materialize")
			wantH, errW := want.Solve(nil)
			gotH, errG := inst.Solve(nil)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("fuzz heuristic error diverged: %v vs %v", errW, errG)
			}
			if errW == nil {
				requireSolutionsEqual(t, wantH, gotH, "fuzz heuristic")
			}
		}
	})
}
