// Command fbbbench is the repository's end-to-end benchmark. One run starts
// an in-process fbbd cluster (three serve.New replicas behind one
// serve.NewRouter, each on its own loopback listener, all with production
// defaults), drives one named workload against it for a fixed time, checks
// every answer against the in-process library, and prints every end-to-end
// metric by name with its unit. A traced run (-trace 1) additionally
// records spans around each layer boundary from outside the program,
// replays a subsample of the same inputs directly against the layers'
// public functions, and prints the per-layer metrics instead.
//
// Usage:
//
//	fbbbench -workload <tune-open|yield-closed|cold-upload|table1-batch|all>
//	         [-seed 1] [-seconds 10] [-trace 0|1] [-spans spans.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a report
// with the host, the validity guards and the failure breakdown. The
// command exits non-zero when an answer was wrong. With -workload all every
// workload runs in its own child process, so heap and GC state do not leak
// between workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	// corrupt flips the first expected answer of every check; the tests use
	// it to prove that a wrong answer fails the run.
	corrupt bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans, replays the inputs per layer and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, also write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fbbbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "fbbbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *seconds > 600 {
		fmt.Fprintln(stderr, "fbbbench: -seconds must be in (0, 600]")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "fbbbench: unknown -workload %q (have %s, all)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs one workload and prints its report and result lines.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "fbbbench:", err)
		return 1
	}
	if err := printJSONLine(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "fbbbench:", err)
		return 1
	}
	if err := printJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "fbbbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "fbbbench: %s: %d wrong answer(s), %d error(s)\n", cfg.workload, rep.Failures.Mismatches, rep.Failures.Errors)
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload with the same flags and
// copies each child's report and result lines to stdout.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "fbbbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "workload" {
			i++ // skip its value
			continue
		}
		if strings.HasPrefix(a, "workload=") {
			continue
		}
		rest = append(rest, args[i])
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append([]string{"-workload", name}, rest...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "fbbbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line printed before the result: where and how the run was
// made, whether its load was valid, and what failed.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Valid      bool               `json:"valid"`
	Invalid    string             `json:"invalid,omitempty"`
	LagP99MS   float64            `json:"lagP99Ms"`
	Host       hostInfo           `json:"host"`
	SetupS     []float64          `json:"setupS"`
	Op         string             `json:"op"`
	Ops        int                `json:"ops"`
	LatencyMS  map[string]float64 `json:"latencyMs"`
	Failures   failures           `json:"failures"`
	FirstError string             `json:"firstError,omitempty"`
	EndToEnd   map[string]metric  `json:"endToEnd"`
}

type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Revision   string `json:"revision"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Revision:   "unknown",
	}
	h.Hostname, _ = os.Hostname() // diagnostic only
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// msf converts a duration to float milliseconds.
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func itoa(i int64) string { return strconv.FormatInt(i, 10) }
