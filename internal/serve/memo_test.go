package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/flow"
)

// memoHits reads the server's flow-mode memo hit counter off /v1/stats.
func memoHits(t *testing.T, c *Client) int64 {
	t.Helper()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.TuneMemoHits
}

// wantTune is the response a flow-mode tune must answer with: the
// in-process repro.RunWith on a freshly built prefix, encoded like fbbd.
func wantTune(t *testing.T, pfx *flow.Prefix, q TuneRequest) []byte {
	t.Helper()
	res, err := repro.RunWith(pfx, repro.Config{
		Beta:         q.Beta,
		MaxClusters:  q.MaxClusters,
		MaxBiasPairs: q.MaxBiasPairs,
		Solver:       q.Solver,
		SkipLayout:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return encodeJSON(t, TuneResponse{Summary: res.Summarize(), ILP: ilpDiag(res)})
}

// postTune posts a tune request and fails the test unless it answers 200.
func postTune(t *testing.T, c *Client, q TuneRequest) []byte {
	t.Helper()
	status, body := postRaw(t, c, "/v1/tune", string(encodeJSON(t, q)))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	return body
}

// TestTuneMemoGoldens: each flow-mode golden exchange of cmd/fbbd, asked
// twice, answers the golden status and bytes both times with a JSON
// Content-Type, and the second 200 comes from the prefix's memo. The
// beyond-range 422 is never memoized.
func TestTuneMemoGoldens(t *testing.T) {
	_, c := newTestServer(t, Options{})
	cases := []struct{ golden, body string }{
		{"tune_c1355", `{"benchmark":"c1355"}`},
		{"tune_c1355_beta10_c2_local", `{"benchmark":"c1355","beta":0.1,"maxClusters":2,"solver":"local"}`},
		{"tune_beyond_range", `{"benchmark":"c1355","beta":0.3}`},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "fbbd", "testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			head, want, ok := strings.Cut(string(raw), "\n\n")
			if !ok {
				t.Fatalf("malformed golden %s", tc.golden)
			}
			for i := range 2 {
				before := memoHits(t, c)
				resp, err := c.httpClient().Post(c.BaseURL+"/v1/tune", "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				_, err = got.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if h := fmt.Sprintf("HTTP %d", resp.StatusCode); h != head {
					t.Fatalf("request %d: %s, want %s", i+1, h, head)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("request %d: Content-Type %q", i+1, ct)
				}
				if got.String() != want {
					t.Fatalf("request %d drifted from the golden:\n got: %s\nwant: %s", i+1, got.String(), want)
				}
				wantHits := int64(0)
				if i == 1 && resp.StatusCode == http.StatusOK {
					wantHits = 1
				}
				if hits := memoHits(t, c) - before; hits != wantHits {
					t.Fatalf("request %d: %d memo hits, want %d", i+1, hits, wantHits)
				}
			}
		})
	}
}

// TestTuneMemoKeysEveryAllocationField: requests that differ from a
// memoized one only in beta, maxClusters, maxBiasPairs or the solver
// string each compute their own answer (even "heuristic", which names the
// default solver), and each is memoized in turn.
func TestTuneMemoKeysEveryAllocationField(t *testing.T) {
	_, c := newTestServer(t, Options{})
	pfx := localPrefix(t, "c1355")
	base := TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.05, MaxClusters: 3}
	postTune(t, c, base)
	variants := map[string]func(q *TuneRequest){
		"beta":         func(q *TuneRequest) { q.Beta = 0.07 },
		"maxClusters":  func(q *TuneRequest) { q.MaxClusters = 2 },
		"maxBiasPairs": func(q *TuneRequest) { q.MaxBiasPairs = 1 },
		"heuristic":    func(q *TuneRequest) { q.Solver = "heuristic" },
		"local":        func(q *TuneRequest) { q.Solver = "local" },
		"ilp":          func(q *TuneRequest) { q.Solver = "ilp" },
	}
	for name, vary := range variants {
		t.Run(name, func(t *testing.T) {
			q := base
			vary(&q)
			want := wantTune(t, pfx, q)
			for i, wantHits := range []int64{0, 1} {
				before := memoHits(t, c)
				if got := postTune(t, c, q); !bytes.Equal(got, want) {
					t.Fatalf("request %d:\n got: %s\nwant: %s", i+1, got, want)
				}
				if hits := memoHits(t, c) - before; hits != wantHits {
					t.Fatalf("request %d: %d memo hits, want %d", i+1, hits, wantHits)
				}
			}
		})
	}
}

// TestTuneMemoBound: a prefix memoizes at most 256 answers. The 257th
// distinct beta is still answered correctly, computed on every request,
// and never stored.
func TestTuneMemoBound(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ref := DesignRef{Benchmark: "c1355"}
	q := func(i int) TuneRequest {
		return TuneRequest{DesignRef: ref, Beta: 0.01 + float64(i)*1e-4}
	}
	for i := range 256 {
		postTune(t, c, q(i))
	}
	last := q(256)
	want := wantTune(t, localPrefix(t, "c1355"), last)
	for i := range 2 {
		before := memoHits(t, c)
		if got := postTune(t, c, last); !bytes.Equal(got, want) {
			t.Fatalf("257th beta, request %d:\n got: %s\nwant: %s", i+1, got, want)
		}
		if hits := memoHits(t, c) - before; hits != 0 {
			t.Fatalf("257th beta, request %d: answered from the memo", i+1)
		}
	}
	pfx, err := s.prefixErr(t.Context(), &ref)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for i := range 257 {
		r := q(i)
		if _, ok := pfx.Answers.Load(flow.Point{Beta: r.Beta}); ok {
			held++
		}
	}
	if _, ok := pfx.Answers.Load(flow.Point{Beta: last.Beta}); ok || held != 256 {
		t.Fatalf("memo holds %d of 257 betas (257th held: %v), want the first 256", held, ok)
	}
}

// TestTuneMemoDroppedWithPrefix: with one prefix slot and alternating
// designs, an evicted prefix takes its memo with it — the prefix itself is
// collected — and the rebuilt prefix starts with an empty memo.
func TestTuneMemoDroppedWithPrefix(t *testing.T) {
	s, c := newTestServer(t, Options{CacheSize: 1})
	ref := DesignRef{Benchmark: "c1355"}
	q := TuneRequest{DesignRef: ref}
	want := postTune(t, c, q)

	collected := make(chan struct{})
	func() {
		pfx, err := s.prefixErr(t.Context(), &ref)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pfx.Answers.Load(flow.Point{}); !ok {
			t.Fatal("answer not memoized on its prefix")
		}
		runtime.SetFinalizer(pfx, func(*flow.Prefix) { close(collected) })
	}()

	postTune(t, c, TuneRequest{DesignRef: DesignRef{Netlist: chainBench(64), Name: "chain64"}})
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		select {
		case <-collected:
			return true
		default:
			return false
		}
	}, "evicted prefix was never collected: something outside the cache still holds it")

	before := memoHits(t, c)
	if got := postTune(t, c, q); !bytes.Equal(got, want) {
		t.Fatalf("rebuilt prefix answered\n %s\nwant %s", got, want)
	}
	if hits := memoHits(t, c) - before; hits != 0 {
		t.Fatalf("rebuilt prefix answered from a memo (%d hits)", hits)
	}
	postTune(t, c, q)
	if hits := memoHits(t, c) - before; hits != 1 {
		t.Fatalf("rebuilt prefix did not memoize its answer (%d hits)", hits)
	}
}

// TestTuneMemoConcurrentIdentical: N concurrent identical flow-mode tunes
// on a cold point all get the same bytes, the in-process answer.
func TestTuneMemoConcurrentIdentical(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 4, Queue: 64})
	q := TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.08, MaxClusters: 2}
	want := wantTune(t, localPrefix(t, "c1355"), q)
	body := encodeJSON(t, q)
	const n = 16
	var wg sync.WaitGroup
	got := make([][]byte, n)
	status := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.httpClient().Post(c.BaseURL+"/v1/tune", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
			}
			status[i], got[i] = resp.StatusCode, buf.Bytes()
		}()
	}
	wg.Wait()
	for i := range n {
		if status[i] != http.StatusOK || !bytes.Equal(got[i], want) {
			t.Fatalf("request %d: status %d\n got: %s\nwant: %s", i, status[i], got[i], want)
		}
	}
}

// TestClientBeyondRangeNotRetried: a design-time tune beyond the FBB
// compensation range is a deterministic 422, so a retrying client makes
// exactly one attempt.
func TestClientBeyondRangeNotRetried(t *testing.T) {
	s := New(Options{})
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = &RetryPolicy{Seed: 1, MaxAttempts: 4, Clock: newFakeClock()}
	_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.3})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("got %v, want a 422 APIError", err)
	}
	if !strings.Contains(apiErr.Error(), "design slowed beyond the FBB compensation range") {
		t.Fatalf("422 lost the core message: %v", apiErr)
	}
	if n := seen.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1", n)
	}
	if r := c.Retries(); r != 0 {
		t.Fatalf("Retries() = %d, want 0", r)
	}
}
