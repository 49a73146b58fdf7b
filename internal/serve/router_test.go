package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
)

// newCluster spins up n in-process fbbd replicas and returns their servers
// and base URLs. Every replica shares the per-replica options (the
// OnPrefixBuild hook is wrapped per replica so builds attribute to the
// replica that ran them).
func newCluster(t *testing.T, n int, opts Options, onBuild func(replica int, key string)) ([]*Server, []string) {
	t.Helper()
	leakCheck(t)
	servers := make([]*Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		o := opts
		if onBuild != nil {
			i := i
			o.OnPrefixBuild = func(key string) { onBuild(i, key) }
		}
		servers[i] = New(o)
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return servers, urls
}

// newTestRouter fronts the given replica URLs with a Router behind
// httptest and returns the router, its handle, and a Client against it.
// The health interval is long so tests drive the view with CheckNow.
func newTestRouter(t *testing.T, urls []string, opts RouterOptions) (*Router, *Client) {
	t.Helper()
	leakCheck(t)
	opts.Replicas = urls
	if opts.HealthInterval == 0 {
		opts.HealthInterval = time.Hour // tests poll explicitly
	}
	rt, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, NewClient(ts.URL)
}

// ownerIndex resolves which replica in urls owns the given design.
func ownerIndex(t *testing.T, rt *Router, urls []string, ref DesignRef) int {
	t.Helper()
	key, e := rt.designKey(&ref)
	if e != nil {
		t.Fatalf("designKey: %v", e)
	}
	seq := rt.ring.sequence(key, 1)
	if len(seq) == 0 {
		t.Fatal("no owner in ring")
	}
	for i, u := range urls {
		if u == seq[0].addr {
			return i
		}
	}
	t.Fatalf("owner %s not among replicas %v", seq[0].addr, urls)
	return -1
}

// TestRouterClusterCoalescing is the cluster-wide acceptance criterion:
// with N replicas behind the router and M concurrent identical requests,
// flow.PrefixBuilds increments exactly once across the whole cluster —
// consistent hashing sends every copy of the key to one replica, and that
// replica's singleflight cache builds once. The build is gated until every
// other request has joined it, so the claim is the routing + coalescing
// path, not lucky timing. Run under -race (CI does).
func TestRouterClusterCoalescing(t *testing.T) {
	const nReplicas, m = 3, 12
	var mu sync.Mutex
	buildsBy := map[int]int{}
	gate := make(chan struct{})
	servers, urls := newCluster(t, nReplicas, Options{Workers: m}, func(rep int, key string) {
		mu.Lock()
		buildsBy[rep]++
		mu.Unlock()
		<-gate
	})
	rt, c := newTestRouter(t, urls, RouterOptions{})
	owner := ownerIndex(t, rt, urls, DesignRef{Benchmark: "c1355"})

	before := flow.PrefixBuilds()
	req := TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.05}
	var wg sync.WaitGroup
	bodies := make([][]byte, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postRaw(t, c, "/v1/tune", string(encodeJSON(t, req)))
			if status != 200 {
				t.Errorf("request %d: status %d: %s", i, status, body)
			}
			bodies[i] = body
		}(i)
	}
	// The winner is parked in the gate on the owner replica; wait until
	// the other m-1 requests joined its in-flight entry, then release.
	waitFor(t, 10*time.Second, func() bool { return servers[owner].cache.Stats().Joins >= m-1 },
		"not all %d requests joined the owner's in-flight build", m-1)
	close(gate)
	wg.Wait()

	if got := flow.PrefixBuilds() - before; got != 1 {
		t.Errorf("flow.Prefix built %d times across the cluster for %d identical requests", got, m)
	}
	if len(buildsBy) != 1 || buildsBy[owner] != 1 {
		t.Errorf("builds per replica %v, want exactly {%d: 1}", buildsBy, owner)
	}
	for i := 1; i < m; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d returned different bytes than request 0", i)
		}
	}
}

// TestRouterDrainRehash is the drain half of the acceptance criterion:
// draining the replica that owns a design re-routes its key with zero
// failed (non-503) client requests — the drain race is absorbed by the
// spill, and once the health view catches up the key lives on the
// survivor, where its prefix is built exactly once more.
func TestRouterDrainRehash(t *testing.T) {
	servers, urls := newCluster(t, 2, Options{}, nil)
	rt, c := newTestRouter(t, urls, RouterOptions{Spill: 1})
	ref := DesignRef{Benchmark: "c1355"}
	owner := ownerIndex(t, rt, urls, ref)
	survivor := 1 - owner

	tune := func() error {
		_, err := c.Tune(context.Background(), TuneRequest{DesignRef: ref, Beta: 0.05})
		return err
	}
	// Warm the owner.
	if err := tune(); err != nil {
		t.Fatal(err)
	}

	before := flow.PrefixBuilds()
	servers[owner].BeginDrain()
	// The router has not polled yet: the next request hits the draining
	// owner, gets its 503, and must spill to the survivor — not fail.
	for i := 0; i < 4; i++ {
		if err := tune(); err != nil {
			t.Fatalf("request %d during drain race failed: %v", i, err)
		}
	}
	// Health catches up: the owner leaves the ring, its key re-hashes.
	rt.CheckNow(context.Background())
	if got := ownerIndex(t, rt, urls, ref); got != survivor {
		t.Fatalf("after drain the key is owned by replica %d, want %d", got, survivor)
	}
	for i := 0; i < 4; i++ {
		if err := tune(); err != nil {
			t.Fatalf("request %d after re-hash failed: %v", i, err)
		}
	}
	// The survivor built the prefix exactly once (the spill request and
	// the re-hashed ones coalesced onto its cache).
	if got := flow.PrefixBuilds() - before; got != 1 {
		t.Errorf("%d prefix builds after drain, want 1 (on the survivor)", got)
	}
	if st := servers[survivor].cache.Stats(); st.Builds != 1 {
		t.Errorf("survivor built %d prefixes, want 1: %+v", st.Builds, st)
	}
	// And the drained replica served nothing new after leaving the ring.
	if n := servers[owner].inFlight.Load(); n != 0 {
		t.Errorf("drained owner still has %d in flight", n)
	}
}

// TestRouterRoutesDistinctDesignsAcrossReplicas: each design key routes to
// exactly one replica, repeatedly — and a spread of designs lands on more
// than one replica (the ring actually distributes).
func TestRouterRoutesDistinctDesignsAcrossReplicas(t *testing.T) {
	var mu sync.Mutex
	buildsBy := map[int]map[string]int{}
	_, urls := newCluster(t, 3, Options{}, func(rep int, key string) {
		mu.Lock()
		if buildsBy[rep] == nil {
			buildsBy[rep] = map[string]int{}
		}
		buildsBy[rep][key]++
		mu.Unlock()
	})
	_, c := newTestRouter(t, urls, RouterOptions{})

	benches := []string{"adder128", "c1355", "c3540", "c5315", "industrial1"}
	for round := 0; round < 2; round++ {
		for _, b := range benches {
			if _, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: b}, Beta: 0.05}); err != nil {
				t.Fatalf("%s: %v", b, err)
			}
		}
	}

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for rep, keys := range buildsBy {
		for key, n := range keys {
			total++
			if n != 1 {
				t.Errorf("replica %d built key %s %d times", rep, key, n)
			}
		}
	}
	if total != len(benches) {
		t.Errorf("%d prefix builds across the cluster for %d designs", total, len(benches))
	}
	if len(buildsBy) < 2 {
		t.Errorf("all %d designs routed to %d replica(s); ring not distributing", len(benches), len(buildsBy))
	}
}

// TestRouterTable1ScatterMatchesSingleServer: a scattered Table 1 request
// through the router returns byte-identical rows to one replica running
// the whole grid — the scatter/gather must not reorder or perturb cells.
func TestRouterTable1ScatterMatchesSingleServer(t *testing.T) {
	_, urls := newCluster(t, 2, Options{}, nil)
	_, c := newTestRouter(t, urls, RouterOptions{})
	_, single := newTestServer(t, Options{})

	// "nope" pins the error-row path: the router must synthesize the same
	// per-beta error rows the server would have produced.
	body := string(encodeJSON(t, Table1Request{
		Benchmarks:   []string{"adder128", "nope", "c1355"},
		Betas:        []float64{0.05, 0.10},
		ILPGateLimit: 1,
	}))
	statusR, viaRouter := postRaw(t, c, "/v1/table1", body)
	statusS, direct := postRaw(t, single, "/v1/table1", body)
	if statusR != 200 || statusS != 200 {
		t.Fatalf("status router %d, single %d", statusR, statusS)
	}
	if !bytes.Equal(viaRouter, direct) {
		t.Errorf("scattered table1 differs from single-server run:\nrouter: %s\nsingle: %s", viaRouter, direct)
	}
}

// TestRouterSheds503WithRetryAfter: when the whole cluster pushes back,
// the client sees the replica's own 503 with Retry-After intact — the
// backpressure contract holds end to end through the router.
func TestRouterSheds503WithRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	servers, urls := newCluster(t, 2, Options{Workers: 1, Queue: -1}, func(int, string) { <-gate })
	rt, c := newTestRouter(t, urls, RouterOptions{Spill: 1})

	// Find, per replica, a design it owns: distinct uploaded netlists hash
	// all over the ring.
	var occupy [2]DesignRef
	found := 0
	for n := 8; found < 2 && n < 256; n++ {
		ref := DesignRef{Netlist: chainBench(n)}
		if idx := ownerIndex(t, rt, urls, ref); occupy[idx].Netlist == "" {
			occupy[idx] = ref
			found++
		}
	}
	if found != 2 {
		t.Fatal("could not find a design owned by each replica")
	}
	// Occupy the single worker on both replicas.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(gate)
	for _, ref := range occupy {
		wg.Add(1)
		go func(ref DesignRef) {
			defer wg.Done()
			_, _ = c.Tune(context.Background(), TuneRequest{DesignRef: ref, Beta: 0.05})
		}(ref)
	}
	waitFor(t, 10*time.Second, func() bool {
		return servers[0].inFlight.Load() == 1 && servers[1].inFlight.Load() == 1
	}, "replicas never saturated")

	resp, err := http.Post(c.BaseURL+"/v1/tune", "application/json", bytes.NewReader(encodeJSON(t, TuneRequest{DesignRef: DesignRef{Netlist: chainBench(300)}, Beta: 0.05})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated cluster answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 through the router lost its Retry-After header")
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("503 body: %q, %v", e.Error, err)
	}
}

// TestRouterFailsOverDeadReplica: a replica that stops answering leaves
// the ring after a health check, and in the race before that its requests
// fail over via spill rather than erroring.
func TestRouterFailsOverDeadReplica(t *testing.T) {
	servers := make([]*Server, 2)
	urls := make([]string, 2)
	tss := make([]*httptest.Server, 2)
	for i := range servers {
		servers[i] = New(Options{})
		tss[i] = httptest.NewServer(servers[i].Handler())
		urls[i] = tss[i].URL
	}
	t.Cleanup(func() {
		for _, ts := range tss {
			ts.Close()
		}
	})
	rt, c := newTestRouter(t, urls, RouterOptions{Spill: 1})
	ref := DesignRef{Benchmark: "c3540"}
	owner := ownerIndex(t, rt, urls, ref)

	tss[owner].Close() // the owner drops off the network
	// Race window: the router still believes in the owner; the transport
	// error must spill, not surface.
	if _, err := c.Tune(context.Background(), TuneRequest{DesignRef: ref, Beta: 0.05}); err != nil {
		t.Fatalf("request during dead-replica race failed: %v", err)
	}
	rt.CheckNow(context.Background())
	if got := ownerIndex(t, rt, urls, ref); got == owner {
		t.Fatal("dead replica still owns its keys after a health check")
	}
	if _, err := c.Tune(context.Background(), TuneRequest{DesignRef: ref, Beta: 0.05}); err != nil {
		t.Fatalf("request after failover failed: %v", err)
	}
}

// TestRouterKeyResolution400s: requests the router cannot key — no design,
// unknown benchmark, unparsable netlist — are the client's 400 at the
// router, matching the replica's own validation.
func TestRouterKeyResolution400s(t *testing.T) {
	_, urls := newCluster(t, 2, Options{}, nil)
	rt, c := newTestRouter(t, urls, RouterOptions{})
	for name, body := range map[string]string{
		"no design":        `{}`,
		"unknown bench":    `{"benchmark":"nope"}`,
		"bad netlist":      `{"netlist":"INPUT(","dies":3}`,
		"ambiguous design": `{"benchmark":"c1355","netlist":"x = NAND(a,b)"}`,
		"not json":         `{`,
	} {
		status, respBody := postRaw(t, c, "/v1/tune", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, respBody)
		}
	}
	if rt.keyErrors.Load() == 0 {
		t.Error("router key errors not counted")
	}
}

// TestRouterYieldStreams: an NDJSON yield study streams through the router
// intact — die lines in order, footer last, typed client none the wiser.
func TestRouterYieldStreams(t *testing.T) {
	_, urls := newCluster(t, 2, Options{}, nil)
	_, c := newTestRouter(t, urls, RouterOptions{})
	seen := 0
	stats, err := c.Yield(context.Background(), YieldRequest{
		DesignRef: DesignRef{Netlist: chainBench(16)},
		Dies:      25, Seed: 3,
	}, func(d *DieResult) error {
		if d.Die != seen {
			return fmt.Errorf("out-of-order die %d at position %d", d.Die, seen)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 25 || stats == nil || stats.Dies != 25 {
		t.Fatalf("stream through router incomplete: %d lines, stats %+v", seen, stats)
	}
}

// TestRouterClusterStats: GET /v1/stats through the router returns the
// cluster view — every replica with health and live stats — and the
// router's /healthz reports the healthy count.
func TestRouterClusterStats(t *testing.T) {
	_, urls := newCluster(t, 2, Options{}, nil)
	_, c := newTestRouter(t, urls, RouterOptions{})
	if _, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.05}); err != nil {
		t.Fatal(err)
	}
	cs, err := c.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Replicas) != 2 {
		t.Fatalf("cluster view has %d replicas, want 2: %+v", len(cs.Replicas), cs)
	}
	forwarded := int64(0)
	for _, r := range cs.Replicas {
		if r.Stats == nil {
			t.Errorf("replica %s: no stats (%s)", r.Addr, r.Err)
		}
		if !r.Healthy {
			t.Errorf("replica %s unhealthy in a healthy cluster", r.Addr)
		}
		forwarded += r.Forwarded
	}
	if forwarded != 1 {
		t.Errorf("forwarded %d, want 1", forwarded)
	}

	// A plain replica's ClusterStats has no replicas — the discovery
	// contract fbbload's router detection rides on.
	plain := NewClient(urls[0])
	pcs, err := plain.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pcs.Replicas) != 0 {
		t.Errorf("plain fbbd advertises %d replicas", len(pcs.Replicas))
	}

	hzResp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hzResp.Body.Close()
	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if err := json.NewDecoder(hzResp.Body).Decode(&hz); err != nil || hz.Status != "ok" || hz.Healthy != 2 {
		t.Errorf("router healthz: %+v (%v)", hz, err)
	}
}

// TestHashRingDrainMovesOnlyOwnedKeys pins the consistent-hashing
// property the cluster's cache economics depend on: taking one replica
// out of the ring re-homes that replica's keys and no others.
func TestHashRingDrainMovesOnlyOwnedKeys(t *testing.T) {
	reps := make([]*replica, 3)
	for i := range reps {
		reps[i] = &replica{addr: fmt.Sprintf("http://r%d", i), checkCh: make(chan struct{}, 1)}
		reps[i].healthy.Store(true)
	}
	ring := newHashRing(reps, 64)

	keys := make([]string, 200)
	ownersBefore := make([]*replica, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		seq := ring.sequence(keys[i], 1)
		if len(seq) != 1 {
			t.Fatalf("key %d: no owner", i)
		}
		ownersBefore[i] = seq[0]
	}
	// Sanity: the ring spreads keys over all three replicas.
	byRep := map[*replica]int{}
	for _, o := range ownersBefore {
		byRep[o]++
	}
	if len(byRep) != 3 {
		t.Fatalf("200 keys landed on %d of 3 replicas", len(byRep))
	}

	reps[0].draining.Store(true)
	moved := 0
	for i, key := range keys {
		seq := ring.sequence(key, 1)
		if len(seq) != 1 {
			t.Fatalf("key %d lost its owner after drain", i)
		}
		if ownersBefore[i] == reps[0] {
			if seq[0] == reps[0] {
				t.Errorf("key %d still owned by the draining replica", i)
			}
			moved++
		} else if seq[0] != ownersBefore[i] {
			t.Errorf("key %d moved (%s -> %s) though its owner is not draining",
				i, ownersBefore[i].addr, seq[0].addr)
		}
	}
	if moved == 0 {
		t.Error("draining replica owned no keys; test is vacuous")
	}

	// The replica's return restores exactly its old keys.
	reps[0].draining.Store(false)
	for i, key := range keys {
		if seq := ring.sequence(key, 1); seq[0] != ownersBefore[i] {
			t.Errorf("key %d did not return to its original owner", i)
		}
	}

	// Spill sequences: distinct replicas, owner first.
	for _, key := range keys[:20] {
		seq := ring.sequence(key, 3)
		if len(seq) != 3 {
			t.Fatalf("sequence(3) returned %d replicas", len(seq))
		}
		if seq[0] == seq[1] || seq[1] == seq[2] || seq[0] == seq[2] {
			t.Fatal("spill sequence repeats a replica")
		}
	}
}

// TestNewRouterValidation: bad replica sets are construction errors.
func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterOptions{}); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := NewRouter(RouterOptions{Replicas: []string{"http://a", "http://a"}}); err == nil {
		t.Error("duplicate replicas accepted")
	}
	if _, err := NewRouter(RouterOptions{Replicas: []string{" "}}); err == nil {
		t.Error("blank replica accepted")
	}
}

// TestRouterNoHealthyReplicas: with every replica out of the ring the
// router sheds with its own 503 + Retry-After rather than hanging.
func TestRouterNoHealthyReplicas(t *testing.T) {
	_, urls := newCluster(t, 2, Options{}, nil)
	rt, c := newTestRouter(t, urls, RouterOptions{})
	for _, rep := range rt.ring.replicas {
		rep.healthy.Store(false)
	}
	_, err := c.Tune(context.Background(), TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.05})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want 503 APIError", err)
	}
	if apiErr.RetryAfterSec == 0 {
		t.Error("router's own 503 has no Retry-After")
	}
	if !apiErr.IsRetryable() {
		t.Error("router shed not retryable")
	}
}

// TestBadArityUploadIs400: a one-input NAND and a net driven twice are
// client errors at both tiers, named by their line. The parser used to
// panic on the first, which dropped the connection at fbbd and at the
// router's design-key parse alike, and silently kept the last driver of
// the second, leaving the NAND a dangling phantom whose leakage and area
// still counted.
func TestBadArityUploadIs400(t *testing.T) {
	_, urls := newCluster(t, 1, Options{}, nil)
	_, viaRouter := newTestRouter(t, urls, RouterOptions{})
	direct := NewClient(urls[0])
	for _, tc := range []struct{ netlist, want string }{
		{"INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n", "bench line 3"},
		{"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\ny = NOR(a, b)\n",
			`bench line 5: net \"y\" already driven by line 4`},
	} {
		body := string(encodeJSON(t, TuneRequest{DesignRef: DesignRef{Netlist: tc.netlist}, Beta: 0.05}))
		for tier, c := range map[string]*Client{"fbbd": direct, "router": viaRouter} {
			status, resp := postRaw(t, c, "/v1/tune", body)
			if status != http.StatusBadRequest || !strings.Contains(string(resp), tc.want) {
				t.Errorf("%s: status %d (%s), want 400 with %s", tier, status, resp, tc.want)
			}
		}
	}
}
