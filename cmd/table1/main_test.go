package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestTable1Golden is the Table 1 regression net: the heuristic table for
// two small benchmarks is committed under testdata/ and compared byte for
// byte, so an STA or heuristic refactor cannot silently drift the paper's
// numbers. The ILP is skipped (-ilp-gates 1) to keep the bytes independent
// of wall-clock budgets; regenerate with `go test ./cmd/table1 -update`.
func TestTable1Golden(t *testing.T) {
	for _, bench := range []string{"c1355", "c3540"} {
		t.Run(bench, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run([]string{"-benchmarks", bench, "-ilp-gates", "1", "-parallel", "1"}, &out, &errb)
			if err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, errb.String())
			}
			golden := filepath.Join("testdata", "table1_"+bench+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, out.String(), want)
			}
		})
	}
}

// TestTable1ILPGoldenParallelInvariant pins the determinism contract of the
// rebuilt exact engine: with the ILP columns on (node-budgeted, no wall
// clock), the table must be byte-identical at any -parallel, and those bytes
// are committed under testdata/ so an engine refactor cannot silently drift
// either the optima or the determinism. Regenerate with -update.
func TestTable1ILPGoldenParallelInvariant(t *testing.T) {
	outs := map[string][]byte{}
	for _, par := range []string{"1", "4"} {
		var out, errb bytes.Buffer
		err := run([]string{"-benchmarks", "c1355", "-betas", "0.05", "-solver", "ilp", "-parallel", par}, &out, &errb)
		if err != nil {
			t.Fatalf("-parallel %s: %v (stderr: %s)", par, err, errb.String())
		}
		outs[par] = out.Bytes()
	}
	if !bytes.Equal(outs["1"], outs["4"]) {
		t.Fatalf("table changed with -parallel:\n--- parallel 1 ---\n%s\n--- parallel 4 ---\n%s",
			outs["1"], outs["4"])
	}
	golden := filepath.Join("testdata", "table1_c1355_ilp.golden")
	if *update {
		if err := os.WriteFile(golden, outs["1"], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(outs["1"], want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, outs["1"], want)
	}
}

func TestTable1CSV(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-benchmarks", "c1355", "-betas", "0.05", "-ilp-gates", "1", "-csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "c1355") {
		t.Errorf("CSV output missing the benchmark row:\n%s", out.String())
	}
}

func TestTable1BadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-betas", "zap"}, &out, &errb); err == nil {
		t.Error("bad -betas accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestTable1ZeroBetaRejected: -betas 0 is a failed cell, annotated on
// stderr, and prints no row; it used to print a "0%" row with exactly the
// 5% row's numbers.
func TestTable1ZeroBetaRejected(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-benchmarks", "c1355", "-betas", "0,0.05", "-ilp-gates", "1", "-csv"}, &out, &errb)
	if err == nil {
		t.Fatal("a zero beta did not fail the run")
	}
	if !strings.Contains(errb.String(), "c1355 beta=0%: core: beta must be a finite positive number, got 0") {
		t.Errorf("zero-beta cell not annotated on stderr: %q", errb.String())
	}
	if strings.Contains(out.String(), ",0%,") {
		t.Errorf("printed a 0%% row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), ",5%,") {
		t.Errorf("the 5%% row is missing:\n%s", out.String())
	}
}

func TestTable1FailedCellAnnotated(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-benchmarks", "c1355,bogus", "-betas", "0.05", "-ilp-gates", "1"}, &out, &errb)
	if err == nil {
		t.Fatal("failing cell did not fail the run")
	}
	if !strings.Contains(out.String(), "c1355") {
		t.Error("completed rows discarded on partial failure")
	}
	if !strings.Contains(errb.String(), "bogus") {
		t.Error("failed cell not annotated on stderr")
	}
}
