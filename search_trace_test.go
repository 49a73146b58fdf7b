package repro

import (
	"math"
	"testing"

	"repro/internal/core"
)

// searchTrace is what one exact Table 1 solve did, not only what it found:
// the outcome, the committed node count, the strong-branching LPs spent and
// the incumbent objective to the bit.
type searchTrace struct {
	status    string
	nodes     int
	strongLPs int
	obj       uint64
}

// table1Traces pins the search of every table1-batch cell (the four
// mid-size circuits at β = 2% and 5%) at both of Table 1's cluster caps.
var table1Traces = map[string]searchTrace{
	"c1355/b2/C2": {"optimal", 42, 116, 0x4048a1a63d4478fe},
	"c1355/b2/C3": {"optimal", 109, 130, 0x4043b719e509e515},
	"c1355/b5/C2": {"optimal", 84, 266, 0x4067460f9328304a},
	"c1355/b5/C3": {"optimal", 276, 284, 0x4062f288c3221cf2},
	"c3540/b2/C2": {"optimal", 107, 130, 0x4059bd01b7da75f9},
	"c3540/b2/C3": {"optimal", 21, 68, 0x40543e80325c4240},
	"c3540/b5/C2": {"optimal", 847, 328, 0x40798465b87addea},
	"c3540/b5/C3": {"optimal", 1408, 230, 0x40754e447c65b801},
	"c5315/b2/C2": {"optimal", 14, 58, 0x40536b7d9eac5b6a},
	"c5315/b2/C3": {"optimal", 25, 62, 0x4051a1f5d1e2a6e2},
	"c5315/b5/C2": {"optimal", 50, 132, 0x4073637ab040b8fd},
	"c5315/b5/C3": {"optimal", 35, 110, 0x407021f7d727fc92},
	"c7552/b2/C2": {"optimal", 55, 70, 0x405ba41807ff01e0},
	"c7552/b2/C3": {"optimal", 151, 84, 0x4059bd7857124d0a},
	"c7552/b5/C2": {"optimal", 15, 60, 0x40755dd18cedd32d},
	"c7552/b5/C3": {"optimal", 51, 128, 0x4074043ad53b3bdb},
}

// TestTable1SearchTrace holds the exact solver's whole branch-and-bound
// tree on the Table 1 cells to recorded values. testdata/ilp_optima.golden pins the optimum each cell reaches;
// this test pins the path: a simplex change that keeps every optimum but
// returns another vertex or another iterate somewhere in the tree moves a
// node count or the strong-branching work, and fails here.
func TestTable1SearchTrace(t *testing.T) {
	eng := NewRunner(1).Engine()
	for _, name := range []string{"c1355", "c3540", "c5315", "c7552"} {
		for _, beta := range []float64{0.02, 0.05} {
			for _, c := range []int{2, 3} {
				key := optimaCell{name, beta, c}.key()
				res, err := RunOn(eng, Config{
					Benchmark:   name,
					Beta:        beta,
					MaxClusters: c,
					SkipLayout:  true,
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				_, ir, err := res.Problem.SolveILP(core.ILPOptions{
					NodeLimit: ilpNodeBudget,
					WarmStart: res.Heuristic,
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := searchTrace{ir.Status.String(), ir.Nodes, ir.StrongLPs, math.Float64bits(ir.Obj)}
				if want := table1Traces[key]; got != want {
					t.Errorf("%s: search %+v, want %+v", key, got, want)
				}
			}
		}
	}
}
