package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// reqHeader carries the benchmark's request id across the HTTP hops of a
// traced run. The servers ignore it; the benchmark's own middleware and
// round-trippers read and forward it.
const reqHeader = "X-Fbbbench-Req"

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent names the span that caused it. Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// FirstByte is when the handler first wrote body bytes (fbbd spans).
	FirstByte int64 `json:"first_byte_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far (the set-up's requests).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs f inside a span of its own.
func (t *tracer) timed(name string, req int64, f func()) time.Duration {
	start := t.now()
	f()
	end := t.now()
	t.add(span{Name: name, Req: req, Parent: "replay", Start: start, End: end})
	return time.Duration(end - start)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(t.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type reqIDKey struct{}

func withReqID(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func reqIDFrom(ctx context.Context) (int64, bool) {
	id, ok := ctx.Value(reqIDKey{}).(int64)
	return id, ok
}

// middleware records a span around every request that carries a request
// id, and puts the id in the request context so the router's forwarding
// client can pass it on.
func (t *tracer) middleware(name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r) // health probes and stats calls
			return
		}
		start := t.now()
		tw := &firstByteWriter{ResponseWriter: w, t: t}
		next.ServeHTTP(tw, r.WithContext(withReqID(r.Context(), id)))
		t.add(span{Name: name, Req: id, Parent: parent, Start: start, End: t.now(), FirstByte: tw.first})
	})
}

// firstByteWriter notes when the handler first writes body bytes. Unwrap
// lets http.ResponseController reach the underlying Flusher, so streamed
// responses flush exactly as they do unwrapped.
type firstByteWriter struct {
	http.ResponseWriter
	t     *tracer
	first int64
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.first == 0 {
		w.first = w.t.now()
	}
	return w.ResponseWriter.Write(p)
}

func (w *firstByteWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// forwardTripper is the router's forwarding transport in a traced run: it
// copies the request id onto each forwarded request and records a
// router.forward span from the send until the relayed body is closed.
type forwardTripper struct {
	tr   *tracer
	next http.RoundTripper
}

func (f *forwardTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := reqIDFrom(req.Context())
	if !ok {
		return f.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, itoa(id))
	start := f.tr.now()
	resp, err := f.next.RoundTrip(req)
	done := func() {
		f.tr.add(span{Name: "router.forward", Req: id, Parent: "router", Start: start, End: f.tr.now()})
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &closeHookBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type closeHookBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *closeHookBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// clientTripper is the load generator's transport in a traced run: it puts
// the request id from the call's context on the wire.
type clientTripper struct{ next http.RoundTripper }

func (c *clientTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := reqIDFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, itoa(id))
	}
	return c.next.RoundTrip(req)
}

// httpSpans groups the HTTP spans of one request.
type httpSpans struct {
	client   *span
	router   *span
	forwards []span
	fbbds    []span
}

func groupHTTP(spans []span) map[int64]*httpSpans {
	g := map[int64]*httpSpans{}
	get := func(id int64) *httpSpans {
		h := g[id]
		if h == nil {
			h = &httpSpans{}
			g[id] = h
		}
		return h
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client":
			get(s.Req).client = s
		case "router":
			get(s.Req).router = s
		case "router.forward":
			h := get(s.Req)
			h.forwards = append(h.forwards, *s)
		case "fbbd":
			h := get(s.Req)
			h.fbbds = append(h.fbbds, *s)
		}
	}
	return g
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(total)
}
