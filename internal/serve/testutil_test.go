package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond every millisecond until it holds, failing the test with
// the formatted message if it does not within timeout. It replaces hand-rolled
// time.Now deadline loops so each test states only its condition.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf(format, args...)
		}
		time.Sleep(time.Millisecond)
	}
}

// newTestServer spins up a Server behind httptest and returns it with a
// matching Client.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

// chainBench returns a tiny ISCAS .bench netlist: a NAND chain of the given
// length re-reading the primary inputs so every gate stays 2-input. Small
// enough that a 10k-die yield study runs in seconds, yet a real placement
// with real timing paths.
func chainBench(gates int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# chain%d\n", gates)
	fmt.Fprintln(&b, "INPUT(a)")
	fmt.Fprintln(&b, "INPUT(b)")
	fmt.Fprintf(&b, "OUTPUT(n%d)\n", gates-1)
	fmt.Fprintln(&b, "n0 = NAND(a, b)")
	for i := 1; i < gates; i++ {
		other := "a"
		if i%2 == 0 {
			other = "b"
		}
		fmt.Fprintf(&b, "n%d = NAND(n%d, %s)\n", i, i-1, other)
	}
	return b.String()
}

// encodeJSON marshals v exactly as the server does (json.Encoder: compact,
// trailing newline), so differential tests can compare raw bytes.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw issues a POST and returns status code and raw body.
func postRaw(t *testing.T, c *Client, path, body string) (int, []byte) {
	t.Helper()
	resp, err := c.httpClient().Post(c.BaseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// CheckNow synchronously probes every replica once — tests use it
// to settle the health view without waiting out HealthInterval.
func (rt *Router) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.ring.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// Benchmarks fetches the server's built-in design names.
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var out struct {
		Benchmarks []string `json:"benchmarks"`
	}
	err := c.doRetry(ctx, func() error {
		out.Benchmarks = nil
		return c.getJSON(ctx, "/v1/benchmarks", &out)
	})
	if err != nil {
		return nil, err
	}
	return out.Benchmarks, nil
}
