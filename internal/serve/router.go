package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// Router is the stateless routing front door of an fbbd cluster: it
// consistent-hashes each request's DesignKey so every design's expensive
// flow prefix is built on exactly one replica — the single-process
// coalescing guarantee extended cluster-wide. The key is resolved without
// running the flow: the router builds or parses only the netlist (the same
// canonical encoding DesignKey hashes) and never places or times a design.
//
// Replicas are watched through their /healthz: a replica that reports
// draining (or stops answering) leaves the hash ring and its keys re-hash
// to the survivors, while every other replica keeps its keys — the
// consistent-hashing property that makes a drain a local, not global,
// cache upset. A 503 from the routed replica (shed under load, or the
// drain race before the next health poll) fails over through a bounded
// spill: up to Spill further replicas in ring order are tried, so a hot or
// draining design degrades into a second replica's cache instead of a
// client-visible error. A 503 that survives the spill is forwarded
// verbatim, Retry-After intact — backpressure stays end to end.
//
// The router holds no request state: routing is a pure function of the
// request body and the current health view, so any number of router
// processes can front the same replica set.
type Router struct {
	opts   RouterOptions
	ring   *hashRing
	client *http.Client
	// keys resolves design keys once per distinct design; of an upload
	// it keeps the digest, key and gate count, never the text or design.
	keys *designResolver
	mux  *http.ServeMux

	shed      atomic.Int64 // 503s returned to clients
	keyErrors atomic.Int64 // requests rejected before routing (400)

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// RouterOptions configure a Router. Replicas is required; every other
// field has a production default.
type RouterOptions struct {
	// Replicas are the fbbd base URLs (e.g. "http://10.0.0.1:8080").
	Replicas []string
	// HealthInterval is the /healthz polling period (default 500ms). A
	// forwarding error or shed additionally triggers an immediate
	// out-of-band re-check of that replica.
	HealthInterval time.Duration
	// Spill bounds failover: after the routed replica sheds or errors, up
	// to Spill further replicas in ring order are tried (default 1;
	// negative = none). Spilled keys build a second prefix on the spill
	// target — bounded duplication in exchange for absorbing hot designs
	// and drain races.
	Spill int
	// VirtualNodes places each replica this many times on the ring
	// (default 64) so keys spread evenly and a drain re-hashes them evenly.
	VirtualNodes int
	// HTTPClient overrides the forwarding transport (nil =
	// http.DefaultClient). Health checks use the same transport with a
	// per-probe timeout.
	HTTPClient *http.Client
	// ForwardTimeout bounds each forward's time to response headers (0 =
	// unbounded). It deliberately does not cover the body: a yield stream
	// answers its headers immediately and may then relay for minutes, so
	// the timer is stopped the moment the replica starts responding. A
	// timed-out forward counts as a transport failure for the breaker and
	// spills to the next replica.
	ForwardTimeout time.Duration
	// BreakerThreshold is the consecutive-forward-failure count that trips
	// a replica's circuit breaker (default 3; values below 1 are raised to
	// 1, i.e. trip on the first failure). A trip removes the replica from
	// the ring immediately and pokes its health loop for an authoritative
	// re-probe, so a dead replica stops taking keys without waiting out
	// HealthInterval; the probe's verdict then rules — a replica whose
	// /healthz still answers rejoins the ring with its failure count
	// restarted. Only transport-level failures count; a shed 503 is a
	// healthy replica pushing back, not a failure.
	BreakerThreshold int
	// MaxGates caps the designs the router routes (default 100_000, the
	// replicas' default). A larger design is answered with the replicas'
	// own "design too large" 400 before any forward and never enters the
	// router's upload memo; set it to the replicas' MaxGates.
	MaxGates int
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.Spill == 0 {
		o.Spill = 1
	} else if o.Spill < 0 {
		o.Spill = 0
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	} else if o.BreakerThreshold < 1 {
		o.BreakerThreshold = 1
	}
	if o.MaxGates <= 0 {
		o.MaxGates = defaultMaxGates
	}
	return o
}

// replica is one fbbd backend and its health view.
type replica struct {
	addr string
	// healthy and draining together decide ring membership: a replica
	// serves keys only while healthy and not draining.
	healthy  atomic.Bool
	draining atomic.Bool
	// forwarded counts requests routed here as the key's owner, spills
	// requests served here as a failover target.
	forwarded atomic.Int64
	spills    atomic.Int64
	// fails counts consecutive forward transport failures (reset by any
	// forwarded response); trips counts how often fails reached the
	// breaker threshold and ejected the replica from the ring.
	fails atomic.Int64
	trips atomic.Int64
	// checkCh pokes the health loop for an immediate re-probe (sized 1;
	// a pending poke absorbs duplicates).
	checkCh chan struct{}
}

func (r *replica) inRing() bool { return r.healthy.Load() && !r.draining.Load() }

// NewRouter builds a Router over the given replicas and starts its health
// loop. Replicas start optimistically in the ring and the first poll (or
// first forwarding failure) corrects the view. Call Close to stop polling.
func NewRouter(opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas")
	}
	seen := map[string]bool{}
	replicas := make([]*replica, 0, len(opts.Replicas))
	for _, addr := range opts.Replicas {
		addr = strings.TrimRight(strings.TrimSpace(addr), "/")
		if addr == "" {
			return nil, fmt.Errorf("router: empty replica address")
		}
		if seen[addr] {
			return nil, fmt.Errorf("router: duplicate replica %s", addr)
		}
		seen[addr] = true
		rep := &replica{addr: addr, checkCh: make(chan struct{}, 1)}
		rep.healthy.Store(true)
		replicas = append(replicas, rep)
	}
	rt := &Router{
		opts:   opts,
		ring:   newHashRing(replicas, opts.VirtualNodes),
		client: opts.HTTPClient,
		mux:    http.NewServeMux(),
		stopCh: make(chan struct{}),
		keys: newDesignResolver(func(name string) (*netlist.Design, error) {
			return gen.Build(name, cell.Default())
		}),
	}
	rt.mux.HandleFunc("POST /v1/tune", func(w http.ResponseWriter, r *http.Request) { rt.routeByDesign(w, r, "/v1/tune") })
	rt.mux.HandleFunc("POST /v1/yield", func(w http.ResponseWriter, r *http.Request) { rt.routeByDesign(w, r, "/v1/yield") })
	rt.mux.HandleFunc("POST /v1/table1", rt.handleTable1)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /v1/benchmarks", rt.handleBenchmarks)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	for _, rep := range replicas {
		rt.wg.Add(1)
		go rt.healthLoop(rep)
	}
	return rt, nil
}

// Handler returns the HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health loops. Idempotent; in-flight forwards finish on
// their own.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	rt.wg.Wait()
}

// healthLoop polls one replica's /healthz every HealthInterval, and
// immediately when poked after a forwarding failure or shed.
func (rt *Router) healthLoop(rep *replica) {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-ticker.C:
		case <-rep.checkCh:
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.opts.HealthInterval*4)
		rt.probe(ctx, rep)
		cancel()
	}
}

// probe updates one replica's health view from its /healthz.
func (rt *Router) probe(ctx context.Context, rep *replica) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+"/healthz", nil)
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	defer drainClose(resp.Body)
	var body struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		rep.healthy.Store(false)
		return
	}
	rep.healthy.Store(true)
	rep.draining.Store(body.Draining)
}

// poke asks rep's health loop for an immediate re-probe (non-blocking).
func (rt *Router) poke(rep *replica) {
	select {
	case rep.checkCh <- struct{}{}:
	default:
	}
}

// noteForwardFailure feeds one transport-level forward failure to rep's
// circuit breaker: at BreakerThreshold consecutive failures the replica is
// tripped out of the ring and its failure count restarts. Tripped or not,
// the health loop is poked so the authoritative /healthz verdict arrives
// immediately instead of at the next HealthInterval tick.
func (rt *Router) noteForwardFailure(rep *replica) {
	if rep.fails.Add(1) >= int64(rt.opts.BreakerThreshold) {
		rep.fails.Store(0)
		if rep.healthy.CompareAndSwap(true, false) {
			rep.trips.Add(1)
		}
	}
	rt.poke(rep)
}

// designKey resolves a request's DesignRef to its cluster routing key
// without running the flow: built-in benchmarks are generated (netlist
// only) and uploads parsed, each once per distinct design, and a design
// over MaxGates fails with the replicas' error. The key is the same
// DesignKey the replicas use for their prefix caches, so router placement
// and replica caching agree by construction.
func (rt *Router) designKey(ref *DesignRef) (string, *apiError) {
	if e := ref.validate(); e != nil {
		return "", e
	}
	info, _, err := rt.keys.resolve(ref, rt.opts.MaxGates)
	if err != nil {
		return "", badRequest("%v", err)
	}
	return info.key, nil
}

// routeByDesign handles /v1/tune and /v1/yield: resolve the design key
// from the body, pick the key's owner on the ring, forward with bounded
// spill, and stream the response through.
func (rt *Router) routeByDesign(w http.ResponseWriter, r *http.Request, path string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		rt.keyErrors.Add(1)
		writeError(w, badRequest("bad request body: %v", err))
		return
	}
	// A lenient probe: the router reads only the design fields; the owning
	// replica applies the endpoint's strict validation to the same bytes.
	var probe struct {
		DesignRef
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		rt.keyErrors.Add(1)
		writeError(w, badRequest("bad request body: %v", err))
		return
	}
	key, e := rt.designKey(&probe.DesignRef)
	if e != nil {
		rt.keyErrors.Add(1)
		writeError(w, e)
		return
	}
	rt.forward(w, r, path, body, key)
}

// forward sends body to the key's owner, spilling through up to Spill
// further ring replicas on shed or transport failure. The final response —
// success or not — streams through verbatim; a cluster-wide failure to
// place the request is the router's own 503.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, path string, body []byte, key string) {
	seq := rt.ring.sequence(key, 1+rt.opts.Spill)
	if len(seq) == 0 {
		rt.shed.Add(1)
		writeError(w, errNoReplicas)
		return
	}
	// lastShed holds the most recent 503 while later candidates are tried:
	// if they all fail too, that response — its Retry-After is the
	// replica's own backpressure signal — is what the client gets.
	var lastShed *http.Response
	var lastShedDone func()
	dropShed := func() {
		if lastShed != nil {
			drainClose(lastShed.Body)
			lastShedDone()
			lastShed = nil
		}
	}
	for i, rep := range seq {
		resp, done, err := rt.send(r, rep, path, body)
		if err != nil {
			// Transport failure (dial error, reset, forward timeout): feed
			// the breaker — which trips the replica out of the ring after
			// BreakerThreshold in a row and re-probes it immediately — and
			// try the next candidate.
			rt.noteForwardFailure(rep)
			continue
		}
		rep.fails.Store(0)
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Shed (saturated) or drain race: re-probe so a draining
			// replica leaves the ring before its next key arrives, and
			// spill this request to the next replica in ring order.
			rt.poke(rep)
			dropShed()
			if i < len(seq)-1 {
				lastShed, lastShedDone = resp, done
				continue
			}
			rt.shed.Add(1)
			rt.relay(w, resp)
			done()
			return
		}
		dropShed()
		if i > 0 {
			rep.spills.Add(1)
		}
		rep.forwarded.Add(1)
		rt.relay(w, resp)
		done()
		return
	}
	rt.shed.Add(1)
	if lastShed != nil {
		rt.relay(w, lastShed)
		lastShedDone()
		return
	}
	writeError(w, errNoReplicas)
}

// send issues one forwarded POST, propagating the client's context and
// applying ForwardTimeout to the headers phase. On success the returned
// done func must be called once the response body has been fully consumed
// (it releases the forward's context resources); on error done is nil.
func (rt *Router) send(r *http.Request, rep *replica, path string, body []byte) (*http.Response, func(), error) {
	ctx, cancel := context.WithCancel(r.Context())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The timeout covers only the wait for response headers: the timer is
	// armed before Do and stopped as soon as the replica answers, so a
	// long NDJSON relay afterwards is never cut short.
	var timer *time.Timer
	if rt.opts.ForwardTimeout > 0 {
		timer = time.AfterFunc(rt.opts.ForwardTimeout, cancel)
	}
	resp, err := rt.client.Do(req)
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// relay streams one upstream response to the client, flushing as bytes
// arrive so NDJSON yield streams stay live through the router.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleTable1 scatters a Table 1 request per benchmark — each benchmark's
// cells run on the replica that owns that design's key, so the grid warms
// exactly the caches the routed tune/yield traffic will hit — and gathers
// the rows back in request order. The concatenation is byte-compatible
// with a single replica's response: rows are produced benchmark-major
// there too.
func (rt *Router) handleTable1(w http.ResponseWriter, r *http.Request) {
	var req Table1Request
	if e := decodeJSON(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); e != nil {
		rt.keyErrors.Add(1)
		writeError(w, e)
		return
	}
	if e := req.validate(); e != nil {
		rt.keyErrors.Add(1)
		writeError(w, e)
		return
	}
	benchmarks, betas := repro.Table1Options{Benchmarks: req.Benchmarks, Betas: req.Betas}.Grid()

	parts := make([]t1part, len(benchmarks))
	var wg sync.WaitGroup
	for i, name := range benchmarks {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sub := req
			sub.Benchmarks = []string{name}
			parts[i] = rt.table1Part(r, name, sub, betas)
		}(i, name)
	}
	wg.Wait()

	rows := make([]repro.Table1Row, 0, len(benchmarks))
	for _, p := range parts {
		if p.err != nil {
			// One shed benchmark sheds the request: a partial grid would
			// silently misreport the paper's table. Retry-After passes
			// through from the replica that pushed back.
			if p.err.status == http.StatusServiceUnavailable {
				rt.shed.Add(1)
			} else {
				rt.keyErrors.Add(1)
			}
			if p.ra != "" {
				w.Header().Set("Retry-After", p.ra)
				p.err.retryAfter = 0 // already set verbatim
			}
			writeError(w, p.err)
			return
		}
		rows = append(rows, p.rows...)
	}
	writeJSON(w, http.StatusOK, Table1Response{Rows: rows})
}

// t1part is one benchmark's share of a scattered Table 1 request.
type t1part struct {
	rows []repro.Table1Row
	err  *apiError
	ra   string // Retry-After of a shed sub-request
}

// table1Part runs one benchmark's sub-request on its owning replica. betas
// is the request's effective beta grid (after defaulting), needed to mirror
// the server's per-beta error rows for unresolvable designs.
func (rt *Router) table1Part(r *http.Request, name string, sub Table1Request, betas []float64) (p t1part) {
	key, e := rt.designKey(&DesignRef{Benchmark: name})
	if e != nil {
		// An unknown benchmark is still a valid request to the server — it
		// answers with one error row per beta, not a 400. Mirror that
		// byte-for-byte so the scattered grid stays interchangeable with a
		// single replica's.
		for _, beta := range betas {
			p.rows = append(p.rows, repro.Table1Row{Benchmark: name, BetaPct: beta * 100, Err: e.msg})
		}
		return p
	}
	body, err := json.Marshal(sub)
	if err != nil {
		p.err = &apiError{status: http.StatusInternalServerError, msg: err.Error()}
		return p
	}

	seq := rt.ring.sequence(key, 1+rt.opts.Spill)
	var last *apiError
	var lastRA string
	for i, rep := range seq {
		resp, done, err := rt.send(r, rep, "/v1/table1", body)
		if err != nil {
			rt.noteForwardFailure(rep)
			last = &apiError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf("replica %s: %v", rep.addr, err), retryAfter: 1}
			lastRA = ""
			continue
		}
		rep.fails.Store(0)
		if resp.StatusCode == http.StatusServiceUnavailable {
			rt.poke(rep)
			last = &apiError{status: http.StatusServiceUnavailable, msg: readErrorBody(resp), retryAfter: 1}
			lastRA = resp.Header.Get("Retry-After")
			drainClose(resp.Body)
			done()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			p.err = &apiError{status: resp.StatusCode, msg: readErrorBody(resp)}
			drainClose(resp.Body)
			done()
			return p
		}
		var out Table1Response
		err = json.NewDecoder(resp.Body).Decode(&out)
		drainClose(resp.Body)
		done()
		if err != nil {
			p.err = &apiError{status: http.StatusBadGateway, msg: fmt.Sprintf("replica %s: bad table1 response: %v", rep.addr, err)}
			return p
		}
		if i > 0 {
			rep.spills.Add(1)
		}
		rep.forwarded.Add(1)
		p.rows = out.Rows
		return p
	}
	if last == nil {
		last = errNoReplicas
	}
	p.err, p.ra = last, lastRA
	return p
}

// readErrorBody extracts the JSON error message of a non-2xx response
// (falling back to the HTTP status).
func readErrorBody(resp *http.Response) string {
	var body ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&body) == nil && body.Error != "" {
		return body.Error
	}
	return resp.Status
}

// handleStats fans a GET /v1/stats out to every replica and returns the
// cluster view: router counters plus each replica's health and live stats
// — the one call a load generator needs to compute per-replica shed rates
// and prefix-build locality.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	reps := rt.ring.replicas
	statuses := make([]ReplicaStatus, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			st := ReplicaStatus{
				Addr:      rep.addr,
				Healthy:   rep.healthy.Load(),
				Draining:  rep.draining.Load(),
				Forwarded: rep.forwarded.Load(),
				Spills:    rep.spills.Load(),
				Trips:     rep.trips.Load(),
			}
			stats, err := NewClientWith(rep.addr, rt.client).Stats(r.Context())
			if err != nil {
				st.Err = err.Error()
			} else {
				st.Stats = stats
			}
			statuses[i] = st
		}(i, rep)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, ClusterStatsResponse{
		Router: RouterStats{
			Shed:      rt.shed.Load(),
			KeyErrors: rt.keyErrors.Load(),
			Spill:     rt.opts.Spill,
		},
		Replicas: statuses,
	})
}

func (rt *Router) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	// The built-in designs are compiled into the router too; answering
	// locally keeps the endpoint up while the cluster churns.
	writeJSON(w, http.StatusOK, struct {
		Benchmarks []string `json:"benchmarks"`
	}{repro.Benchmarks()})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, rep := range rt.ring.replicas {
		if rep.inRing() {
			healthy++
		}
	}
	status := "ok"
	if healthy == 0 {
		status = "no-replicas"
	}
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
		Replicas int    `json:"replicas"`
		Healthy  int    `json:"healthy"`
	}{status, false, len(rt.ring.replicas), healthy})
}

// ClusterStatsResponse is the router's GET /v1/stats body: the presence of
// the replicas array is what distinguishes a router from a plain fbbd.
type ClusterStatsResponse struct {
	Router   RouterStats     `json:"router"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// RouterStats are the router's own counters.
type RouterStats struct {
	// Shed counts 503s returned to clients (no replica could take the
	// request, or the owning replica's shed survived the spill).
	Shed int64 `json:"shed"`
	// KeyErrors counts requests rejected before routing (bad body or
	// unresolvable design).
	KeyErrors int64 `json:"keyErrors"`
	// Spill echoes the configured failover bound.
	Spill int `json:"spill"`
}

// ReplicaStatus is one replica's health and stats in the cluster view.
type ReplicaStatus struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	// Forwarded counts requests this router routed here as key owner,
	// Spills those it served as a failover target, Trips how often the
	// consecutive-failure breaker ejected it from the ring.
	Forwarded int64 `json:"forwarded"`
	Spills    int64 `json:"spills"`
	Trips     int64 `json:"trips"`
	// Stats is the replica's own /v1/stats (absent when unreachable, with
	// Err explaining why).
	Stats *StatsResponse `json:"stats,omitempty"`
	Err   string         `json:"err,omitempty"`
}

var errNoReplicas = &apiError{status: http.StatusServiceUnavailable, msg: "no healthy replicas", retryAfter: 1}

// --- consistent hash ring ---

// hashRing places every replica VirtualNodes times on a 64-bit ring. A key
// is owned by the first in-ring replica clockwise of its hash; the spill
// sequence continues clockwise over distinct replicas. Unhealthy and
// draining replicas stay on the ring but are skipped at lookup, so a
// replica's return restores exactly its old keys.
type hashRing struct {
	replicas []*replica
	vnodes   []vnode // sorted by hash
}

type vnode struct {
	hash uint64
	idx  int // into replicas
}

func newHashRing(replicas []*replica, virtual int) *hashRing {
	r := &hashRing{replicas: replicas}
	r.vnodes = make([]vnode, 0, len(replicas)*virtual)
	for i, rep := range replicas {
		for v := 0; v < virtual; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: ringHash(fmt.Sprintf("%s#%d", rep.addr, v)), idx: i})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV-1a barely avalanches on short, similar inputs: replica vnode
	// labels ("http://host:port#0".."#63") hash to one narrow band of the
	// 64-bit space, which collapses the ring onto a single replica. A
	// splitmix64 finalizer spreads them over the whole ring.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sequence returns up to n distinct in-ring replicas for key, in ring
// order starting at the key's owner. An empty result means the cluster has
// no usable replica.
func (r *hashRing) sequence(key string, n int) []*replica {
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	kh := ringHash(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= kh })
	out := make([]*replica, 0, n)
	seen := make([]bool, len(r.replicas))
	for i := 0; i < len(r.vnodes) && len(out) < n; i++ {
		vn := r.vnodes[(start+i)%len(r.vnodes)]
		if seen[vn.idx] {
			continue
		}
		seen[vn.idx] = true
		if rep := r.replicas[vn.idx]; rep.inRing() {
			out = append(out, rep)
		}
	}
	return out
}
