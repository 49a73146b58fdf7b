package netlist_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// benchText is the .bench text of a built-in design, as uploads carry it.
func benchText(t testing.TB, name string) string {
	t.Helper()
	d, err := gen.Build(name, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, d); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestParseMatchesReference: ParseBench builds exactly the reference
// reader's Design from every built-in's text, from its lower-cased form,
// and answers like it on keywords and function names spelled with the
// dotless ı, which upper-cases to I.
func TestParseMatchesReference(t *testing.T) {
	lib := cell.Default()
	check := func(what, src string, mustParse bool) {
		t.Helper()
		d, err := netlist.ParseBench(strings.NewReader(src), "up", lib)
		ref, refErr := netlist.ParseBenchRef(strings.NewReader(src), "up", lib)
		switch {
		case refErr != nil || err != nil:
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Errorf("%s: error %v, reference error %v", what, err, refErr)
			}
			if mustParse {
				t.Errorf("%s: rejected: %v", what, err)
			}
		case !reflect.DeepEqual(d, ref):
			t.Errorf("%s: design differs from the reference reader's", what)
		}
	}
	for _, name := range gen.Names() {
		text := benchText(t, name)
		check(name, text, true)
		check(name+" lower-cased", strings.ToLower(text), true)
		check(name+" ınput(", strings.ReplaceAll(strings.ToLower(text), "input(", "ınput("), false)
	}
	for _, src := range []string{
		"ınput(a)\nınput(b)\nOUTPUT(y)\ny = ınv(a)\n",
		"ıNPUT(a)\noutput(y)\ny = NAND(a, a)\n",
		"INPUT(a)\nOUTPUT(y)\nınv(a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = \xffNOT(a)\nınput()\n",
		"INPUT(a)\nOUTPUT(y)\n\xc4\xb1nput(\xb1)\ny = NOT(a)\n",
	} {
		check(src, src, false)
	}
}

// TestParseBenchAllocBudget bounds the allocations of parsing c5315's
// upload text: 16 570 for the reference reader, about 6 900 now.
func TestParseBenchAllocBudget(t *testing.T) {
	const budget = 8000
	text := benchText(t, "c5315")
	lib := cell.Default()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := netlist.ParseBench(strings.NewReader(text), "c5315", lib); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("parsing c5315 takes %.0f allocations, budget %d", allocs, budget)
	}
}

// BenchmarkParseBench parses the upload texts of the cold-upload designs.
func BenchmarkParseBench(b *testing.B) {
	lib := cell.Default()
	for _, name := range []string{"c1355", "c3540", "c5315"} {
		text := benchText(b, name)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := netlist.ParseBench(strings.NewReader(text), name, lib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
