// Agingcomp demonstrates dynamic compensation of time-dependent variation
// (the paper's section 3.1: "temperature and circuit aging induced timing
// failures ... are dynamic in nature" and need periodic re-tuning).
//
// A die ages under NBTI for ten years and heats from 300K to 370K; at each
// checkpoint the in-situ monitors re-sense the slowdown and the controller
// re-allocates clustered FBB. Run with:
//
//	go run ./examples/agingcomp [-bench c3540]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("agingcomp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "c3540", "benchmark name")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, a clean exit
		}
		return err
	}

	pl, nom, err := repro.NominalTiming(*bench)
	if err != nil {
		return err
	}
	proc := tech.Default45nm()
	model := variation.Default()

	// One reusable sampler, analyzer and allocation engine serve every
	// checkpoint's re-tuning — the batched form the periodic re-tuning
	// controller would run on-line. The aged die is re-derived into one
	// reused buffer per checkpoint instead of a fresh pair of slices.
	smp := variation.NewSampler(pl, proc, model)
	die := smp.SampleInto(nil, 11)
	var aged *variation.Die
	an, err := sta.NewAnalyzer(pl, sta.Options{})
	if err != nil {
		return err
	}
	al, err := core.NewAllocator(pl, nom)
	if err != nil {
		return err
	}
	tn := variation.NewTuner(variation.NewRetimer(an), al)

	fmt.Fprintf(stdout, "%s: nominal Dcrit %.0f ps; one die followed over 10 years\n\n",
		*bench, nom.DcritPS)

	t := report.New("dynamic compensation under aging and temperature",
		"year", "temp", "slowdown", "tuned?", "clusters", "Dcrit after", "leakage after")
	for _, cp := range []struct {
		years float64
		tempK float64
	}{
		{0, 300}, {1, 330}, {3, 345}, {5, 360}, {10, 370},
	} {
		aged = smp.AgedInto(aged, die, cp.years, 0.8)
		hotProc := proc.WithTemperature(cp.tempK)
		// Temperature also derates every gate uniformly.
		hotProc.DelayFactorsDVth(aged.DelayScale, aged.DVthV)
		r, err := variation.TuneOn(tn, nom, aged, hotProc, variation.TuneOptions{
			GuardbandPct: 0.005,
		})
		if err != nil {
			return err
		}
		tuned := "no (already met)"
		clusters := "-"
		if r.Solution != nil {
			tuned = "yes"
			clusters = fmt.Sprint(r.Solution.Clusters)
		}
		if !r.Met {
			tuned = "FAILED: " + r.Reason
		}
		t.Add(
			fmt.Sprintf("%.0f", cp.years),
			fmt.Sprintf("%.0fK", cp.tempK),
			fmt.Sprintf("%+.1f%%", r.BetaActual*100),
			tuned,
			clusters,
			fmt.Sprintf("%.0f ps", r.DcritAfterPS),
			fmt.Sprintf("%.2f uW", r.LeakAfterNW/1000),
		)
	}
	fmt.Fprint(stdout, t.String())
	fmt.Fprintln(stdout, "\nthe controller escalates the bias as the die degrades, trading leakage")
	fmt.Fprintln(stdout, "for timing exactly as the static process-variation flow does at time zero.")
	return nil
}
