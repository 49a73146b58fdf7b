// Command fbbvet is the repo's multichecker: it runs the custom contract
// analyzers (detrand, scratchbuf, workerstate — see internal/lint) over the
// given packages and then the stock `go vet` suite, so one command answers
// "does the tree satisfy every machine-checked invariant".
//
// Usage:
//
//	go run ./cmd/fbbvet ./...
//
// Exit status is 0 when the tree is clean, 1 when any analyzer or vet
// reports a finding, 2 on load/usage errors. Findings are printed as
// file:line:col: analyzer: message. A finding can be suppressed — narrowly
// and auditably — with a comment on the same line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a reasonless allow is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"repro/internal/lint"
	"repro/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fbbvet", flag.ContinueOnError)
	runVet := fs.Bool("vet", true, "also run the stock `go vet` suite over the same patterns")
	dir := fs.String("C", ".", "module directory to analyze from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := driver.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbvet:", err)
		return 2
	}
	findings, err := driver.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbbvet:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
	}

	status := 0
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fbbvet: %d finding(s)\n", len(findings))
		status = 1
	}
	if *runVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = *dir
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "fbbvet: go vet:", err)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}
