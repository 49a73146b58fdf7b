package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the tests
// hold the command's output to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCommand pins BENCHMARK.json to the command: the
// same workloads, and the same metrics with the same units.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	check := func(kind string, file map[string]string, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(file), len(defs))
		}
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, d.name)
			}
			if u, ok := file[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, command unit %q", kind, d.name, u, d.unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end-to-end", e2e, endToEnd)
	check("per-layer", layers, perLayer)
}

// hasAll reports a missing or mislabelled metric.
func hasAll(t *testing.T, got map[string]metric, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %q", d.name, m, ok, d.unit)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(got), len(defs))
	}
}

// TestWorkloadsSmoke runs every workload briefly: each must answer every
// request correctly and print every end-to-end metric, none of them 0.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, rep, err := runWorkload(config{workload: name, seed: 1, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d (%+v, first error %q)", res.Correct, res.Attempted, res.Failed, rep.Failures, rep.FirstError)
			}
			hasAll(t, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks a traced run: every per-layer metric is printed,
// the yield stages account for the stream, and for every request the HTTP
// spans nest client ⊇ router ⊇ router.forward ⊇ fbbd.
func TestTracedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	res, rep, err := runWorkload(config{workload: "yield-closed", seed: 2, seconds: 0.5, trace: true, spans: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d (%+v)", res.Correct, res.Failed, rep.Failures)
	}
	hasAll(t, res.Metrics, perLayer)
	hasAll(t, rep.EndToEnd, endToEnd)
	if r := res.Metrics["yield.residual_ratio"].Value; r > 0.15 || r < -0.15 {
		t.Errorf("yield.residual_ratio = %g, want within ±0.15", r)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	reqs := 0
	for id, h := range groupHTTP(spans) {
		if h.client == nil {
			continue // replay-only ids
		}
		reqs++
		if !h.nests() {
			t.Errorf("request %d: spans do not nest: client %+v router %+v forwards %+v fbbd %+v", id, h.client, h.router, h.forwards, h.fbbds)
		}
	}
	if reqs != rep.Ops {
		t.Errorf("%d requests have HTTP spans, %d ops succeeded", reqs, rep.Ops)
	}
}

// TestWrongAnswerFailsRun corrupts one expected answer per workload check:
// the run must report it and exit non-zero.
func TestWrongAnswerFailsRun(t *testing.T) {
	for _, name := range []string{"tune-open", "table1-batch"} {
		t.Run(name, func(t *testing.T) {
			if code := runConfig(config{workload: name, seed: 3, seconds: 0.5, corrupt: true}, io.Discard, io.Discard); code == 0 {
				t.Fatal("a corrupted expected answer left the exit code 0")
			}
		})
	}
}

// within reports whether inner lies inside outer.
func within(inner, outer span) bool {
	return inner.Start >= outer.Start && inner.End <= outer.End
}

// nests reports whether a request's HTTP spans nest client ⊇ router ⊇
// forward ⊇ fbbd, with at least one span at every level.
func (h *httpSpans) nests() bool {
	if h.client == nil || h.router == nil || len(h.forwards) == 0 || len(h.fbbds) == 0 {
		return false
	}
	if !within(*h.router, *h.client) {
		return false
	}
	for _, f := range h.forwards {
		if !within(f, *h.router) {
			return false
		}
	}
	for _, s := range h.fbbds {
		ok := false
		for _, f := range h.forwards {
			ok = ok || within(s, f)
		}
		if !ok {
			return false
		}
	}
	return true
}
