package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// startRouter runs the real router daemon — flag parsing, listener,
// shutdown — on an ephemeral port in front of the given replica URLs and
// returns its base URL. The cleanup cancels the signal context and asserts
// a clean exit.
func startRouter(t *testing.T, replicas []string, extra ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(replicas, ","),
	}, extra...)
	go func() { done <- run(ctx, args, pw, io.Discard) }()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("router produced no output: %v", sc.Err())
	}
	line := sc.Text()
	const prefix = "fbbrouter: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected first line %q", line)
	}
	baseURL, _, _ := strings.Cut(strings.TrimPrefix(line, prefix), " ")
	go io.Copy(io.Discard, pr) // keep the drain messages flowing

	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("router exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router did not shut down within 10s")
		}
		pw.Close()
	})
	return baseURL
}

func newReplicas(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(serve.New(serve.Options{}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestRouterDaemonServesCluster: the daemon end to end — flags, listener,
// routed tune traffic, the cluster stats view, and graceful shutdown (in
// cleanup).
func TestRouterDaemonServesCluster(t *testing.T) {
	replicas := newReplicas(t, 2)
	baseURL := startRouter(t, replicas, "-health-interval", "50ms")
	c := serve.NewClient(baseURL)

	for _, bench := range []string{"c1355", "c3540"} {
		resp, err := c.Tune(context.Background(), serve.TuneRequest{
			DesignRef: serve.DesignRef{Benchmark: bench}, Beta: 0.05,
		})
		if err != nil {
			t.Fatalf("%s through the daemon: %v", bench, err)
		}
		if resp.Summary == nil || resp.Summary.Benchmark != bench {
			t.Fatalf("%s: response %+v", bench, resp)
		}
	}

	cs, err := c.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Replicas) != 2 {
		t.Fatalf("cluster view: %+v", cs)
	}
	var forwarded int64
	for _, r := range cs.Replicas {
		forwarded += r.Forwarded
	}
	if forwarded != 2 {
		t.Errorf("forwarded %d requests, want 2", forwarded)
	}

	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz.Status != "ok" || hz.Healthy != 2 {
		t.Errorf("healthz %+v (%v)", hz, err)
	}
}

// TestRouterMaxGatesFlag: -max-gates reaches the router, which rejects a
// larger design itself, before forwarding anything.
func TestRouterMaxGatesFlag(t *testing.T) {
	baseURL := startRouter(t, newReplicas(t, 1), "-max-gates", "100")
	c := serve.NewClient(baseURL)
	_, err := c.Tune(context.Background(), serve.TuneRequest{
		DesignRef: serve.DesignRef{Benchmark: "c1355"}, Beta: 0.05,
	})
	if err == nil || !strings.Contains(err.Error(), "design too large") || !strings.Contains(err.Error(), "limit 100") {
		t.Fatalf("c1355 through a 100-gate router: %v, want design too large", err)
	}
	cs, err := c.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cs.Replicas {
		if r.Forwarded != 0 {
			t.Errorf("replica %s was forwarded %d requests", r.Addr, r.Forwarded)
		}
	}
}

func TestRouterRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},                                 // -replicas required
		{"-replicas", " , "},               // blank entries only
		{"-replicas", "http://a,http://a"}, // duplicates
		{"-no-such-flag"},
		{"-replicas", "http://a", "-addr", "256.256.256.256:0"},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Errorf("-h: %v", err)
	}
}
