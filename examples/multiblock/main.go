// Multiblock reproduces the paper's Figure 2 scenario: a four-block SoC
// served by one central body-bias generator. Each block senses its own
// slowdown (the Tc flags of the figure), is compensated independently with
// row-clustered FBB, and the generator distributes at most two (vbsn, vbsp)
// pairs per block. Run with:
//
//	go run ./examples/multiblock [-blocks c1355,c3540,c5315,c7552] [-betas 0.05,0.08,0.05,0.10]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("multiblock", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		blockList = fs.String("blocks", "c1355,c3540,c5315,c7552", "comma-separated block benchmarks")
		betaList  = fs.String("betas", "0.05,0.08,0.05,0.10", "comma-separated sensed slowdowns, one per block")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, a clean exit
		}
		return err
	}

	blocks := strings.Split(*blockList, ",")
	var betas []float64
	for _, s := range strings.Split(*betaList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad beta: %s", s)
		}
		betas = append(betas, v)
	}

	res, err := repro.NewRunner(1).MultiBlock(blocks, betas)
	if err != nil {
		return err
	}

	t := report.New("Figure 2 — central generator serving the blocks",
		"block", "sensed slowdown", "bias levels", "savings vs single-BB")
	for _, b := range res.Blocks {
		t.Add(b.Name,
			fmt.Sprintf("%.0f%%", b.BetaPct),
			fmt.Sprint(b.Levels),
			fmt.Sprintf("%.1f%%", b.SavingsPct))
	}
	fmt.Fprint(stdout, t.String())

	fmt.Fprintf(stdout, "\ncentral generator: %d distinct voltages across %d routed pairs\n",
		res.DistinctLevels, len(res.Plan.Lines))
	for _, l := range res.Plan.Lines {
		fmt.Fprintf(stdout, "  %-8s level %2d -> vbsn=%.2fV vbsp=%.2fV\n", l.Block, l.Level, l.VbsN, l.VbsP)
	}
	fmt.Fprintf(stdout, "generator+buffers+routing area: %.1f%% of die (per Tschanz et al. [8])\n",
		res.GenAreaPct)
	return nil
}
