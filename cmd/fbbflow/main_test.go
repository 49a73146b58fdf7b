package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestFBBFlowSingleBench(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-bench", "c1355", "-parallel", "1", "-timing"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"c1355:", "single-BB", "heuristic", "layout:", "timing report"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFBBFlowWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	def := filepath.Join(dir, "out.def")
	v := filepath.Join(dir, "out.v")
	var out, errb bytes.Buffer
	if err := run([]string{"-bench", "c1355", "-parallel", "1", "-def", def, "-verilog", v}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{def, v} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s missing or empty (%v)", p, err)
		}
	}
}

func TestFBBFlowMultiBenchKeepsGoodReports(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-bench", "c1355,bogus", "-parallel", "1"}, &out, &errb)
	if err == nil {
		t.Fatal("failing benchmark did not fail the run")
	}
	if !strings.Contains(out.String(), "c1355:") {
		t.Error("completed report discarded on partial failure")
	}
	if !strings.Contains(errb.String(), "bogus") {
		t.Error("failure not annotated on stderr")
	}
}

func TestFBBFlowRejectsArtifactsWithMultipleBenches(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-bench", "c1355,c3540", "-def", "x.def"}, &out, &errb); err == nil {
		t.Error("-def with multiple benches accepted")
	}
}

// TestFBBFlowRejectsNonFiniteBeta: a beta that is not a finite positive
// number fails the run with the allocator's typed error on every solver,
// instead of printing an all-NBB allocation as a solution. (-beta 0 is
// not among them: a zero Config.Beta selects the 5% default.)
func TestFBBFlowRejectsNonFiniteBeta(t *testing.T) {
	for _, solver := range []string{"heuristic", "local", "ilp"} {
		for _, beta := range []string{"NaN", "Inf", "-Inf", "-0.05"} {
			var out, errb bytes.Buffer
			err := run([]string{"-bench", "c1355", "-parallel", "1", "-solver", solver, "-beta", beta}, &out, &errb)
			if err == nil {
				t.Errorf("%s -beta %s: run succeeded:\n%s", solver, beta, out.String())
			}
			if !strings.Contains(errb.String(), "core: beta must be a finite positive number") {
				t.Errorf("%s -beta %s: stderr %q lacks the beta error", solver, beta, errb.String())
			}
			if strings.Contains(out.String(), "heuristic") {
				t.Errorf("%s -beta %s: printed an allocation:\n%s", solver, beta, out.String())
			}
		}
	}
}

// TestFBBFlowNonFiniteBetaExitCode runs main in a child process: the beta
// error must reach the exit status.
func TestFBBFlowNonFiniteBetaExitCode(t *testing.T) {
	if os.Getenv("FBBFLOW_TEST_MAIN") == "1" {
		os.Args = []string{"fbbflow", "-bench", "c1355", "-parallel", "1", "-beta", "NaN"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFBBFlowNonFiniteBetaExitCode$")
	cmd.Env = append(os.Environ(), "FBBFLOW_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("fbbflow -beta NaN: err %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "core: beta must be a finite positive number, got NaN") {
		t.Errorf("output lacks the beta error:\n%s", out)
	}
}
