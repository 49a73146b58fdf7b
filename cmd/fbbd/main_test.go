package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// startDaemon runs the real daemon — flag parsing, listener, drain — on an
// ephemeral port and returns its base URL. The cleanup cancels the signal
// context and asserts a clean drain, so every test also exercises the
// shutdown path.
func startDaemon(t *testing.T, extra ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(ctx, args, pw, io.Discard) }()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("daemon produced no output: %v", sc.Err())
	}
	line := sc.Text()
	const prefix = "fbbd: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected first line %q", line)
	}
	baseURL := strings.TrimPrefix(line, prefix)
	go io.Copy(io.Discard, pr) // keep the drain messages flowing

	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not drain within 10s")
		}
		pw.Close()
	})
	return baseURL
}

// goldenExchange performs one request and renders "HTTP <code>", the
// Retry-After header when present, a blank line, then the body — the
// committed wire-level contract of the fbbd API.
func goldenExchange(t *testing.T, baseURL, method, path, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, baseURL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	fmt.Fprintf(&out, "HTTP %d\n", resp.StatusCode)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		fmt.Fprintf(&out, "Retry-After: %s\n", ra)
	}
	out.WriteString("\n")
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exchange drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestGoldenExchanges pins the JSON request/response contract of every
// endpoint — success bodies, validation error bodies for bad beta/C, the
// 422 of a beta beyond the FBB compensation range, and the NDJSON yield
// stream — byte for byte against testdata/. Regenerate
// with `go test ./cmd/fbbd -update`.
func TestGoldenExchanges(t *testing.T) {
	baseURL := startDaemon(t)
	cases := []struct {
		name, method, path, body string
	}{
		{"tune_c1355", "POST", "/v1/tune", `{"benchmark":"c1355"}`},
		{"tune_c1355_beta10_c2_local", "POST", "/v1/tune", `{"benchmark":"c1355","beta":0.1,"maxClusters":2,"solver":"local"}`},
		{"tune_die_seed7", "POST", "/v1/tune", `{"benchmark":"c1355","die":{"seed":7}}`},
		{"tune_bad_beta", "POST", "/v1/tune", `{"benchmark":"c1355","beta":2}`},
		{"tune_beyond_range", "POST", "/v1/tune", `{"benchmark":"c1355","beta":0.3}`},
		{"tune_bad_clusters", "POST", "/v1/tune", `{"benchmark":"c1355","maxClusters":-2}`},
		{"tune_bad_solver", "POST", "/v1/tune", `{"benchmark":"c1355","solver":"zap"}`},
		{"tune_no_design", "POST", "/v1/tune", `{}`},
		{"tune_unknown_field", "POST", "/v1/tune", `{"benchmrk":"c1355"}`},
		{"yield_c1355_2dies", "POST", "/v1/yield", `{"benchmark":"c1355","dies":2,"seed":3}`},
		{"yield_bad_dies", "POST", "/v1/yield", `{"benchmark":"c1355","dies":-5}`},
		{"table1_c1355", "POST", "/v1/table1", `{"benchmarks":["c1355"],"betas":[0.05],"ilpGateLimit":1}`},
		{"table1_bad_beta", "POST", "/v1/table1", `{"betas":[7]}`},
		{"benchmarks", "GET", "/v1/benchmarks", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, goldenExchange(t, baseURL, tc.method, tc.path, tc.body))
		})
	}
}

// TestGoldenSaturation503 pins the backpressure contract: a single-worker,
// zero-queue daemon streaming one long yield sheds the next request with
// the exact 503 body and Retry-After header committed in testdata/.
func TestGoldenSaturation503(t *testing.T) {
	baseURL := startDaemon(t, "-workers", "1", "-queue", "-1")

	// Occupy the only worker with a long-running stream; reading the
	// first NDJSON line guarantees the handler is inside its slot.
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	body := `{"benchmark":"c1355","dies":1000000,"seed":1,"workers":1}`
	req, err := http.NewRequestWithContext(holdCtx, "POST", baseURL+"/v1/yield", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("yield stream produced no line: %v", err)
	}

	checkGolden(t, "saturated_503",
		goldenExchange(t, baseURL, "POST", "/v1/tune", `{"benchmark":"c1355"}`))

	// Cancel the stream so the daemon's drain in cleanup is prompt.
	release()
}

// TestDrainNoticeKeepsHealthzUp: with -drain-notice set, shutdown keeps
// the listener answering for the notice window with /healthz reporting
// draining:true and new work shed as 503 — the window fbbrouter needs to
// observe the drain and re-hash this replica's keys before connections
// start being refused.
func TestDrainNoticeKeepsHealthzUp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-notice", "1s"}, pw, io.Discard)
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("daemon produced no output: %v", sc.Err())
	}
	baseURL := strings.TrimPrefix(sc.Text(), "fbbd: listening on ")
	go io.Copy(io.Discard, pr)
	defer pw.Close()

	healthz := func() (ok bool, draining bool) {
		resp, err := http.Get(baseURL + "/healthz")
		if err != nil {
			return false, false
		}
		defer resp.Body.Close()
		var hz struct {
			Draining bool `json:"draining"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			return false, false
		}
		return true, hz.Draining
	}
	if ok, draining := healthz(); !ok || draining {
		t.Fatalf("healthy daemon: ok=%v draining=%v", ok, draining)
	}

	cancel()
	// Within the notice window the listener must still answer, now
	// advertising the drain...
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, draining := healthz()
		if ok && draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never reported draining:true on a live listener")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...and shed new work with a clean 503, not a refused connection.
	resp, err := http.Post(baseURL+"/v1/tune", "application/json", strings.NewReader(`{"benchmark":"c1355"}`))
	if err != nil {
		t.Fatalf("listener gone during the notice window: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Errorf("daemon exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Error("daemon did not exit after the notice window")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:0"}, io.Discard, io.Discard); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Errorf("-h: %v", err)
	}
}
