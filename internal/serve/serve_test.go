package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/netlist"
)

// --- Prefix cache unit tests: fbbd's prefix layer is a memo.Memo of
// *flow.Prefix, driven here with fake builds (the memo never inspects the
// prefix, so a zero value stands in) ---

func TestPrefixCacheCoalescesConcurrentBuilds(t *testing.T) {
	var builds atomic.Int64
	c := memo.New[string, *flow.Prefix](4)
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]*flow.Prefix, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pfx, err := c.Get(context.Background(), "k", func() (*flow.Prefix, error) {
				builds.Add(1)
				<-gate
				return &flow.Prefix{}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = pfx
		}(i)
	}
	// Wait until the loser goroutines have joined the in-flight entry,
	// then let the winner finish.
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Joins >= n-1 },
		"not all loser goroutines joined the in-flight entry")
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("coalescing failed: %d builds for 16 concurrent gets", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("get %d returned a different prefix instance", i)
		}
	}
	st := c.Stats()
	if st.Builds != 1 || st.Misses != 1 || st.Hits != n-1 || st.Len != 1 {
		t.Fatalf("stats off: %+v", st)
	}
}

func TestPrefixCacheLRUEviction(t *testing.T) {
	c := memo.New[string, *flow.Prefix](2)
	builds := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := c.Get(context.Background(), key, func() (*flow.Prefix, error) {
			builds[key]++
			return &flow.Prefix{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now the LRU
	get("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("len %d after eviction, want 2", c.Len())
	}
	get("a") // still resident
	get("b") // rebuilt
	if builds["a"] != 1 {
		t.Errorf("a built %d times, want 1 (should have stayed resident)", builds["a"])
	}
	if builds["b"] != 2 {
		t.Errorf("b built %d times, want 2 (evicted then rebuilt)", builds["b"])
	}
	if ev := c.Stats().Evictions; ev < 2 {
		t.Errorf("evictions %d, want >= 2", ev)
	}
}

// TestPrefixCacheFailedBuildDoesNotEvict pins the garbage-traffic
// invariant: a build that fails must never cost a resident placement its
// slot, even on a full cache where an insert-time eviction policy would
// have dropped the LRU entry before the failure was known.
func TestPrefixCacheFailedBuildDoesNotEvict(t *testing.T) {
	c := memo.New[string, *flow.Prefix](1)
	goodBuilds := 0
	good := func() (*flow.Prefix, error) {
		goodBuilds++
		return &flow.Prefix{}, nil
	}
	if _, err := c.Get(context.Background(), "good", good); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := c.Get(context.Background(), "bad", func() (*flow.Prefix, error) {
			return nil, errors.New("boom")
		})
		if err == nil {
			t.Fatal("failing build succeeded")
		}
	}
	if _, err := c.Get(context.Background(), "good", good); err != nil {
		t.Fatal(err)
	}
	if goodBuilds != 1 {
		t.Fatalf("resident placement rebuilt %d times: failed builds evicted it", goodBuilds)
	}
}

func TestPrefixCacheDoesNotRetainFailures(t *testing.T) {
	c := memo.New[string, *flow.Prefix](4)
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Get(context.Background(), "bad", func() (*flow.Prefix, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	}
	if calls != 3 {
		t.Fatalf("failed build cached: %d calls, want 3", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry retained: len %d", c.Len())
	}
}

func TestPrefixCacheWaiterHonoursContext(t *testing.T) {
	c := memo.New[string, *flow.Prefix](2)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Get(context.Background(), "k", func() (*flow.Prefix, error) {
			close(started)
			<-gate
			return &flow.Prefix{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	close(gate)
}

// TestPrefixCacheFailedJoinAccounting is the regression test for the
// stats misaccounting bug: a Get that joined an in-flight build used to be
// booked as a hit at join time, even when that build then failed — a bad
// design being hammered reported a near-perfect hit rate while serving
// nothing but errors. Joins must resolve into Hits only on success;
// failed builds and expired waiter contexts are FailedJoins.
func TestPrefixCacheFailedJoinAccounting(t *testing.T) {
	c := memo.New[string, *flow.Prefix](4)
	boom := errors.New("boom")

	// Two joiners attach to a build that fails.
	gate := make(chan struct{})
	results := make(chan error, 3)
	go func() {
		_, err := c.Get(context.Background(), "bad", func() (*flow.Prefix, error) {
			<-gate
			return nil, boom
		})
		results <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Misses == 1 },
		"winner never started its build")
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Get(context.Background(), "bad", nil)
			results <- err
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Joins == 2 },
		"joiners never attached")
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-results; !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.FailedJoins != 2 {
		t.Fatalf("joins on a failed build booked as hits: %+v", st)
	}

	// A waiter whose context expires is a failed join even though the
	// build goes on to succeed for everyone else; a waiter that sees the
	// success is a hit.
	gate2 := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, err := c.Get(context.Background(), "good", func() (*flow.Prefix, error) {
			<-gate2
			return &flow.Prefix{}, nil
		})
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Misses == 2 },
		"second winner never started")
	ctx, cancel := context.WithCancel(context.Background())
	expired := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "good", nil)
		expired <- err
	}()
	go func() {
		_, err := c.Get(context.Background(), "good", nil)
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Joins == 4 },
		"waiters never attached to the second build")
	cancel()
	if err := <-expired; !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter got %v", err)
	}
	close(gate2)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("successful build surfaced %v", err)
		}
	}
	st = c.Stats()
	if st.Joins != 4 || st.FailedJoins != 3 || st.Hits != 1 {
		t.Fatalf("join accounting off: %+v (want joins=4 failedJoins=3 hits=1)", st)
	}
}

// --- DesignKey ---

func TestDesignKeyDistinguishesDesignsAndRows(t *testing.T) {
	lib := cell.Default()
	parse := func(text, name string) *netlist.Design {
		t.Helper()
		d, err := netlist.ParseBench(strings.NewReader(text), name, lib)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := parse(chainBench(12), "chain")
	d1b := parse(chainBench(12), "chain")
	d2 := parse(chainBench(13), "chain")
	d3 := parse(chainBench(12), "chain2")
	if DesignKey(d1, 0) != DesignKey(d1b, 0) {
		t.Error("identical designs got different keys")
	}
	if DesignKey(d1, 0) == DesignKey(d2, 0) {
		t.Error("different structures share a key")
	}
	if DesignKey(d1, 0) == DesignKey(d3, 0) {
		t.Error("different names share a key")
	}
	if DesignKey(d1, 0) == DesignKey(d1, 2) {
		t.Error("different forceRows share a key")
	}
}

// TestDesignKeyPinned pins the key encoding to literal values: a shifted
// byte stream would re-home every design on the router's ring and orphan
// every cached prefix, which no relative key test can notice.
func TestDesignKeyPinned(t *testing.T) {
	lib := cell.Default()
	build := func(name string) *netlist.Design {
		t.Helper()
		d, err := gen.Build(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	c1355, c5315 := build("c1355"), build("c5315")
	var text strings.Builder
	if err := netlist.WriteBench(&text, c5315); err != nil {
		t.Fatal(err)
	}
	upload, err := netlist.ParseBench(strings.NewReader(text.String()), "hot0", lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what      string
		d         *netlist.Design
		forceRows int
		want      string
	}{
		{"c1355", c1355, 0, "664982a73deef57d1f3f34c74958e52f0712d5b2934fb56132c5c980a081d163"},
		{"c1355 forceRows 2", c1355, 2, "1a65d96bd4f869a00b83660911ba45630b7f03fd879c259ec21ddab8003020da"},
		{"c5315", c5315, 0, "5a8ecc091908ee92ea0057e498fb41233d0d24991b0016b73fd2ac178cfaf318"},
		{"c5315 uploaded as hot0", upload, 0, "122599fa7b71fddcbbe3afda8d4bba13a2eceb5e3980299ed7eb7c23e0e22b5e"},
	} {
		if got := DesignKey(tc.d, tc.forceRows); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.what, got, tc.want)
		}
	}
}

// --- Admission / backpressure / drain ---

// blockingServer returns a server whose next prefix build blocks until the
// returned release func is called — the deterministic way to hold a worker
// slot mid-request without sleeps.
func blockingServer(t *testing.T, opts Options) (*Server, *Client, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	opts.OnPrefixBuild = func(string) { <-gate }
	s, c := newTestServer(t, opts)
	return s, c, gate
}

func TestBackpressureShedsWith503(t *testing.T) {
	s, c, gate := blockingServer(t, Options{Workers: 1, Queue: -1, CacheSize: 2})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(8)}})
		errCh <- err
	}()
	// Wait for the first request to be admitted and block in its build.
	waitFor(t, 5*time.Second, func() bool { return s.inFlight.Load() > 0 },
		"first request never admitted")

	_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("saturated request: got %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || !apiErr.IsRetryable() {
		t.Fatalf("saturated request: %+v", apiErr)
	}
	if apiErr.RetryAfterSec != 1 {
		t.Fatalf("Retry-After %d, want 1", apiErr.RetryAfterSec)
	}
	if apiErr.Message != "server saturated" {
		t.Fatalf("message %q", apiErr.Message)
	}
	if s.shed.Load() != 1 {
		t.Fatalf("shed counter %d, want 1", s.shed.Load())
	}

	close(gate)
	if err := <-errCh; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

func TestQueuedRequestRunsAfterWorkerFrees(t *testing.T) {
	s, c, gate := blockingServer(t, Options{Workers: 1, Queue: 1, CacheSize: 4})
	first := make(chan error, 1)
	go func() {
		_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(8)}})
		first <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.inFlight.Load() > 0 },
		"first request never admitted")
	// Second request queues (depth 1); it must complete once the gate
	// opens, not shed. Its build also passes the gate: same channel, but
	// by then it is closed.
	second := make(chan error, 1)
	go func() {
		_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(9)}})
		second <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return len(s.queueSem) > 0 },
		"second request never queued")
	// Third request finds worker busy and queue full: shed.
	_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third request: got %v, want 503", err)
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second (queued): %v", err)
	}
}

func TestDrainRejectsNewAndFinishesInFlight(t *testing.T) {
	leakCheck(t)
	s, c, gate := blockingServer(t, Options{Workers: 2, CacheSize: 2})
	inflight := make(chan error, 1)
	go func() {
		_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(8)}})
		inflight <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.inFlight.Load() > 0 },
		"request never admitted")

	s.BeginDrain()
	_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a request: %v", err)
	}
	if apiErr.Message != "server draining" {
		t.Fatalf("message %q", apiErr.Message)
	}

	// Drain must wait for the in-flight request...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain returned %v with a request still in flight", err)
	}
	cancel()
	// ...and succeed once it finishes.
	close(gate)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
}

// TestDrainVsQueuedRequests pins the drain/queue race: requests parked in
// the admission queue when BeginDrain lands must each get exactly one
// response — success if they were already admitted, a clean 503 otherwise;
// never a hang, never a second answer — and Drain must return afterwards
// (no WaitGroup leak from queued requests). CI runs this under -race.
func TestDrainVsQueuedRequests(t *testing.T) {
	leakCheck(t)
	s, c, gate := blockingServer(t, Options{Workers: 1, Queue: 8, CacheSize: 16})
	const queued = 6
	results := make(chan error, queued+1)
	issue := func(n int) {
		_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(8 + n)}})
		results <- err
	}
	// One request holds the single worker; `queued` more park in the queue.
	go issue(0)
	waitFor(t, 5*time.Second, func() bool { return s.inFlight.Load() > 0 },
		"first request never admitted")
	for i := 1; i <= queued; i++ {
		go issue(i)
	}
	waitFor(t, 5*time.Second, func() bool { return len(s.queueSem) == queued },
		"requests never queued")

	// Drain begins while the queue is full; the worker frees concurrently.
	go s.BeginDrain()
	close(gate)

	okN, shedN := 0, 0
	for i := 0; i < queued+1; i++ {
		var apiErr *APIError
		switch err := <-results; {
		case err == nil:
			okN++
		case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable:
			shedN++
		default:
			t.Fatalf("queued request surfaced a non-503 failure: %v", err)
		}
	}
	if okN == 0 {
		t.Error("every request shed; the admitted one should have completed")
	}
	t.Logf("drain race: %d completed, %d shed", okN, shedN)

	if !s.Draining() {
		t.Error("server not draining after BeginDrain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain never returned after the queue emptied: %v", err)
	}
	if n := len(s.queueSem); n != 0 {
		t.Errorf("%d requests still queued after Drain", n)
	}
}

// --- Endpoint basics ---

func TestTuneOnUploadedNetlist(t *testing.T) {
	_, c := newTestServer(t, Options{})
	resp, err := c.Tune(context.Background(), TuneRequest{
		DesignRef: DesignRef{Netlist: chainBench(24), Name: "chain24"},
		Beta:      0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Summary == nil || resp.Die != nil {
		t.Fatalf("flow-mode response shape wrong: %+v", resp)
	}
	if resp.Summary.Benchmark != "chain24" || resp.Summary.Gates != 24 {
		t.Fatalf("summary %+v", resp.Summary)
	}
	if resp.Summary.Best.TotalLeakUW <= 0 || resp.Summary.DcritPS <= 0 {
		t.Fatalf("implausible summary %+v", resp.Summary)
	}
	if len(resp.Summary.Best.Assign) != resp.Summary.Rows {
		t.Fatalf("assign length %d != rows %d", len(resp.Summary.Best.Assign), resp.Summary.Rows)
	}
}

func TestTuneDieMode(t *testing.T) {
	_, c := newTestServer(t, Options{})
	resp, err := c.Tune(context.Background(), TuneRequest{
		DesignRef: DesignRef{Benchmark: "c1355"},
		Die:       &DieRequest{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Die == nil || resp.Summary != nil {
		t.Fatalf("die-mode response shape wrong: %+v", resp)
	}
	if resp.Die.Seed != 7 {
		t.Fatalf("die seed %d, want 7", resp.Die.Seed)
	}
	if resp.Die.DcritBeforePS <= 0 {
		t.Fatalf("implausible die result %+v", resp.Die)
	}
}

// TestTuneSolveCacheKeysByConfiguration: identical die-mode tunes share
// the prefix's SolveCache entries whatever their solver. Each request parses
// its own "ilp" or "local" value, and the cache keys by configuration, so a
// stream of such tunes cannot fill the cache and leave later yield requests
// re-solving their recurring targets.
func TestTuneSolveCacheKeysByConfiguration(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	ref := DesignRef{Benchmark: "c1355"}
	tune := func(solver string, seed int64) bool {
		t.Helper()
		resp, err := c.Tune(ctx, TuneRequest{DesignRef: ref, Solver: solver, Die: &DieRequest{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Die.Solution != nil
	}
	// The first die that needs bias; a die meeting timing unbiased never
	// reaches the cache.
	seed := int64(1)
	for ; !tune("heuristic", seed); seed++ {
		if seed == 64 {
			t.Fatal("no c1355 die among seeds 1-64 needed bias")
		}
	}
	pfx, err := s.prefixErr(ctx, &ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"local", "ilp"} {
		before := pfx.Solves.Len()
		tune(solver, seed)
		filled := pfx.Solves.Len()
		if filled <= before {
			t.Fatalf("%s: first tune stored nothing (%d entries before and after)", solver, before)
		}
		for i := 0; i < 20; i++ {
			tune(solver, seed)
		}
		if got := pfx.Solves.Len(); got != filled {
			t.Errorf("%s: 20 identical tunes grew the cache from %d to %d entries", solver, filled, got)
		}
	}
	for i := 0; i < 300; i++ {
		tune([]string{"local", "ilp"}[i%2], seed)
	}
	before := pfx.Solves.Len()
	if _, err := c.Yield(ctx, YieldRequest{DesignRef: ref, Dies: 64, Seed: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if got := pfx.Solves.Len(); got <= before {
		t.Fatalf("heuristic yield after 300 tunes stored no recurring target (%d entries before and after)", got)
	}
}

// TestYieldRejectsImpossibleResume: a resume accumulator no stream can
// produce is the client's 400, answered before any die line, not a 200
// stream ending in a yield above 100%.
func TestYieldRejectsImpossibleResume(t *testing.T) {
	_, c := newTestServer(t, Options{})
	for _, tc := range []struct{ acc, want string }{
		{`{"dies":1,"metBefore":-5,"metAfter":1000,"tunedDies":7,"failedCompensations":-3,"sumBetaPct":1,"worstBetaPct":1,` +
			`"sumLeakBeforeNW":1,"sumLeakAfterNW":1,"sumLeakTunedOnlyNW":1,"sumIters":1,"sumClusters":1}`, "metBefore -5"},
		{`{"dies":1,"metAfter":2,"failedCompensations":-1}`, "metAfter 2 out of range [0, 1]"},
		{`{"dies":1}`, "metAfter 0 + failedCompensations 0 != dies 1"},
		{`{"dies":1,"metAfter":1,"sumLeakAfterNW":-3}`, "sumLeakAfterNW -3"},
		{`{"dies":1,"metAfter":1,"tunedDies":1,"sumIters":-7,"sumClusters":-3}`, "sumIters -7 below tunedDies 1"},
		{`{"dies":1,"metAfter":1,"tunedDies":1,"sumIters":1,"sumClusters":-3}`, "sumClusters -3"},
		// Beyond the default MaxIters (5) and MaxClusters (3).
		{`{"dies":1,"metAfter":1,"tunedDies":1,"sumIters":1000,"sumClusters":50}`, "sumIters 1000 above tunedDies 1 × 5"},
		{`{"dies":1,"metAfter":1,"tunedDies":1,"sumIters":5,"sumClusters":50}`, "sumClusters 50 above tunedDies 1 × 3"},
		{`{"dies":1,"metAfter":1,"tunedDies":1,"sumIters":1,"sumClusters":1,"sumLeakAfterNW":2,"sumLeakTunedOnlyNW":3}`,
			"sumLeakTunedOnlyNW 3 above sumLeakAfterNW 2"},
	} {
		body := `{"benchmark":"c1355","dies":2,"resume":{"ckpt":1,"acc":` + tc.acc + `}}`
		status, resp := postRaw(t, c, "/v1/yield", body)
		if status != http.StatusBadRequest {
			t.Fatalf("acc %s: status %d, want 400 (body %s)", tc.acc, status, resp)
		}
		if !strings.Contains(string(resp), tc.want) || strings.Contains(string(resp), `"die"`) {
			t.Fatalf("acc %s: body %s, want one error naming %q", tc.acc, resp, tc.want)
		}
	}
	// Possible priors still resume, the second within the request's own
	// maxIters and maxClusters rather than the defaults.
	for _, body := range []string{
		`{"benchmark":"c1355","dies":2,"resume":{"ckpt":1,"acc":{"dies":1,"metBefore":1,"metAfter":1,"worstBetaPct":-1,"sumBetaPct":-1,"sumLeakBeforeNW":5,"sumLeakAfterNW":5}}}`,
		`{"benchmark":"c1355","dies":2,"maxIters":8,"maxClusters":4,"resume":{"ckpt":1,"acc":{"dies":1,"metAfter":1,"worstBetaPct":2,"sumBetaPct":2,"sumLeakBeforeNW":5,"sumLeakAfterNW":6,"sumLeakTunedOnlyNW":6,"tunedDies":1,"sumIters":8,"sumClusters":4}}}`,
	} {
		status, resp := postRaw(t, c, "/v1/yield", body)
		if status != http.StatusOK || !strings.Contains(string(resp), `"die":1`) {
			t.Fatalf("valid resume %s: status %d, body %s", body, status, resp)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	_, c := newTestServer(t, Options{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantIn           string
	}{
		{"no design", "/v1/tune", `{}`, 400, "no design"},
		{"both designs", "/v1/tune", `{"benchmark":"c1355","netlist":"INPUT(a)"}`, 400, "not both"},
		{"bad beta", "/v1/tune", `{"benchmark":"c1355","beta":-1}`, 400, "beta"},
		{"bad clusters", "/v1/tune", `{"benchmark":"c1355","maxClusters":99}`, 400, "maxClusters"},
		{"bad solver", "/v1/tune", `{"benchmark":"c1355","solver":"zap"}`, 400, "unknown solver"},
		{"race solver", "/v1/tune", `{"benchmark":"c1355","solver":"race"}`, 400, "unknown solver"},
		{"unknown benchmark", "/v1/tune", `{"benchmark":"zap"}`, 400, "unknown benchmark"},
		{"unknown field", "/v1/tune", `{"benchmrk":"c1355"}`, 400, "unknown field"},
		{"trailing garbage", "/v1/tune", `{"benchmark":"c1355"} {}`, 400, "trailing data"},
		{"bad netlist", "/v1/tune", `{"netlist":"INPUT(a)\ny = ZAP(a)\nOUTPUT(y)"}`, 400, "unsupported bench function"},
		{"yield no dies", "/v1/yield", `{"benchmark":"c1355"}`, 400, "dies"},
		{"yield bad workers", "/v1/yield", `{"benchmark":"c1355","dies":1,"workers":-2}`, 400, "workers"},
		{"table1 bad beta", "/v1/table1", `{"betas":[0]}`, 400, "beta"},
		{"table1 time limit", "/v1/table1", `{"ilpTimeLimitMS":1000}`, 400, "unknown field"},
		{"table1 too many betas", "/v1/table1", `{"betas":[0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1]}`, 400, "too many betas"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRaw(t, c, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			if !strings.Contains(string(body), tc.wantIn) {
				t.Fatalf("body %q missing %q", body, tc.wantIn)
			}
		})
	}
}

func TestStatsAndHealthz(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 3, Queue: 5})
	if _, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(8)}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.Queue != 5 {
		t.Fatalf("pool config %+v", st)
	}
	if st.Cache.Builds != 1 || st.Cache.Len != 1 {
		t.Fatalf("cache stats %+v", st.Cache)
	}
	if st.InFlight != 0 {
		t.Fatalf("inFlight %d at rest", st.InFlight)
	}
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	benches, err := c.Benchmarks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 9 {
		t.Fatalf("benchmarks %v", benches)
	}
	_ = s
}

func TestBenchmarkAndIdenticalUploadShareOnePrefix(t *testing.T) {
	// A benchmark requested by name and the same design uploaded as a
	// netlist hash to different keys only if they differ structurally;
	// two identical uploads must share. (The generated c1355 and its
	// .bench round-trip differ structurally — drive sizing — so the
	// sharing contract is exercised on uploads.)
	var mu sync.Mutex
	builds := map[string]int{}
	s, c := newTestServer(t, Options{OnPrefixBuild: func(k string) {
		mu.Lock()
		builds[k]++
		mu.Unlock()
	}})
	text := chainBench(16)
	for i := 0; i < 3; i++ {
		if _, err := c.Tune(context.Background(), TuneRequest{
			DesignRef: DesignRef{Netlist: text},
			Beta:      0.02 + 0.01*float64(i), // different betas, same prefix
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(builds) != 1 {
		t.Fatalf("distinct keys %d, want 1 (%v)", len(builds), builds)
	}
	for k, n := range builds {
		if n != 1 {
			t.Fatalf("key %s built %d times", k, n)
		}
	}
	if st := s.cache.Stats(); st.Hits != 2 {
		t.Fatalf("hits %d, want 2: %+v", st.Hits, st)
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	_, c := newTestServer(t, Options{})
	resp, err := http.Get(c.BaseURL + "/v1/tune")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tune: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(c.BaseURL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope: %d, want 404", resp.StatusCode)
	}
}

func TestYieldStreamShape(t *testing.T) {
	_, c := newTestServer(t, Options{})
	var dies []int
	stats, err := c.Yield(context.Background(), YieldRequest{
		DesignRef: DesignRef{Netlist: chainBench(16)},
		Dies:      5, Seed: 11,
	}, func(d *DieResult) error {
		dies = append(dies, d.Die)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.Dies != 5 {
		t.Fatalf("stats %+v", stats)
	}
	for i, d := range dies {
		if d != i {
			t.Fatalf("die order %v", dies)
		}
	}
	if len(dies) != 5 {
		t.Fatalf("%d die lines, want 5", len(dies))
	}
}

func TestYieldUnknownBenchmarkIs400(t *testing.T) {
	_, c := newTestServer(t, Options{})
	_, err := c.Yield(context.Background(), YieldRequest{
		DesignRef: DesignRef{Benchmark: "zap"}, Dies: 2,
	}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("got %v, want 400", err)
	}
}

func TestMaxGatesRejected(t *testing.T) {
	_, c := newTestServer(t, Options{MaxGates: 10})
	_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Netlist: chainBench(24)}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("got %v, want 400", err)
	}
	if !strings.Contains(apiErr.Message, "too large") {
		t.Fatalf("message %q", apiErr.Message)
	}
	// The cap holds on every endpoint, including table1's row-annotated
	// error path — the endpoint doing the most work per design.
	resp, err := c.Table1(context.Background(), Table1Request{
		Benchmarks:   []string{"c1355"},
		Betas:        []float64{0.05},
		ILPGateLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || !strings.Contains(resp.Rows[0].Err, "too large") {
		t.Fatalf("table1 ignored MaxGates: %+v", resp.Rows)
	}
}

// TestUnknownBenchmarksDoNotGrowDesignCache pins the admission-side memory
// bound: a client-invented benchmark name fails, and a failure is never
// memoized, so an attacker looping fresh names leaves neither the designs
// memo nor the design key memo an entry.
func TestUnknownBenchmarksDoNotGrowDesignCache(t *testing.T) {
	s, c := newTestServer(t, Options{})
	for i := 0; i < 20; i++ {
		status, _ := postRaw(t, c, "/v1/tune", fmt.Sprintf(`{"benchmark":"bogus%d"}`, i))
		if status != 400 {
			t.Fatalf("unknown benchmark %d: status %d, want 400", i, status)
		}
	}
	if n := s.designs.Len(); n != 0 {
		t.Fatalf("designs cache grew to %d entries on unknown names", n)
	}
	if n := s.keys.builtins.Len(); n != 0 {
		t.Fatalf("design key memo grew to %d entries on unknown names", n)
	}
}

func TestTable1UnknownBenchmarkAnnotatedOnRow(t *testing.T) {
	_, c := newTestServer(t, Options{})
	resp, err := c.Table1(context.Background(), Table1Request{
		Benchmarks:   []string{"zap"},
		Betas:        []float64{0.05},
		ILPGateLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].Err == "" {
		t.Fatalf("rows %+v", resp.Rows)
	}
	if !strings.Contains(resp.Rows[0].Err, "unknown benchmark") {
		t.Fatalf("err %q", resp.Rows[0].Err)
	}
}

func ExampleDesignKey() {
	lib := cell.Default()
	d, _ := netlist.ParseBench(strings.NewReader(chainBench(4)), "chain", lib)
	fmt.Println(len(DesignKey(d, 0)))
	// Output: 64
}
