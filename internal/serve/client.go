package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// Client is a thin typed client for the fbbd API. The zero HTTPClient uses
// http.DefaultClient; safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Retry, when non-nil, makes the client self-healing: retryable
	// failures (shed 503s, 5xx, transport errors, broken yield streams)
	// are retried under the policy's backoff and budgets, and Yield
	// transparently resumes a broken stream from its last checkpoint with
	// duplicate-die suppression. Nil preserves single-attempt behavior.
	Retry *RetryPolicy

	// retries counts scheduled retry attempts (beyond each call's first)
	// across the client's lifetime.
	retries atomic.Int64
}

// Retries reports how many retry attempts (beyond first attempts) this
// client has scheduled — the numerator of a load run's amplification.
func (c *Client) Retries() int64 { return c.retries.Load() }

// NewClient returns a Client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// NewClientWith returns a Client using the given http.Client (nil =
// http.DefaultClient).
func NewClientWith(baseURL string, hc *http.Client) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTPClient: hc}
}

// maxDrainBytes bounds how much of an unread response body drainClose will
// consume to hand the connection back to the keep-alive pool. Error bodies
// are tiny; an abandoned NDJSON stream past this bound costs the
// connection, not unbounded reading.
const maxDrainBytes = 256 << 10

// drainClose consumes the remainder of a response body (bounded) before
// closing it. Closing an HTTP response body with bytes still unread kills
// the underlying keep-alive connection; under a 503-heavy load run that
// turns every shed response into a fresh dial. Draining first lets the
// transport reuse the connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	_ = body.Close()
}

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RetryAfterSec is the Retry-After header (0 if absent) — set on 503
	// shed responses; clients replaying traffic should back off by it.
	RetryAfterSec int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fbbd: %d: %s", e.StatusCode, e.Message)
}

// IsRetryable reports whether another attempt can succeed: shed requests
// (503, saturated or draining) and transient server-side failures (500/502/
// 504 — a crashed handler, a bad gateway hop). 4xx are the caller's bug and
// never retryable. All fbbd endpoints are pure functions of the request, so
// retrying a retryable status is always safe.
func (e *APIError) IsRetryable() bool {
	switch e.StatusCode {
	case http.StatusServiceUnavailable, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// StreamError reports a /v1/yield stream that died mid-flight, carrying the
// frontier: dies [0, NextDie) were fully delivered before the failure.
// Resume logic restarts at the last checkpoint and operators see exactly
// where the stream broke instead of an opaque decode error.
type StreamError struct {
	// NextDie is the first die index that was NOT delivered.
	NextDie int
	// Err is the underlying failure (transport error, truncation, bad
	// line).
	Err error
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("fbbd: yield stream broken at die %d: %v", e.NextDie, e.Err)
}

func (e *StreamError) Unwrap() error { return e.Err }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post issues one JSON POST and returns the raw response; the caller owns
// the body. Non-2xx responses are decoded into *APIError.
func (c *Client) post(ctx context.Context, path string, reqBody any) (*http.Response, error) {
	buf, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer drainClose(resp.Body)
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfterSec = ra
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != "" {
		apiErr.Message = body.Error
	} else {
		apiErr.Message = resp.Status
	}
	return apiErr
}

func (c *Client) postJSON(ctx context.Context, path string, reqBody, out any) error {
	resp, err := c.post(ctx, path, reqBody)
	if err != nil {
		return err
	}
	// Drain, don't just close: json.Decoder stops at the value's end and
	// leaves the encoder's trailing newline unread, which would cost the
	// keep-alive connection on every single request.
	defer drainClose(resp.Body)
	return json.NewDecoder(resp.Body).Decode(out)
}

// Tune runs one /v1/tune request (retried under the client's policy).
func (c *Client) Tune(ctx context.Context, req TuneRequest) (*TuneResponse, error) {
	var out TuneResponse
	err := c.doRetry(ctx, func() error {
		out = TuneResponse{}
		return c.postJSON(ctx, "/v1/tune", req, &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Table1 runs one /v1/table1 request (retried under the client's policy).
func (c *Client) Table1(ctx context.Context, req Table1Request) (*Table1Response, error) {
	var out Table1Response
	err := c.doRetry(ctx, func() error {
		out = Table1Response{}
		return c.postJSON(ctx, "/v1/table1", req, &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// DefaultYieldCheckpoint is the checkpoint interval a retrying client
// requests when the caller didn't pick one: frequent enough that a broken
// stream rarely replays more than this many dies, rare enough that the
// checkpoint lines are stream noise, not stream payload.
const DefaultYieldCheckpoint = 64

// streamProgress carries a yield stream's client-side state across resume
// attempts: the delivery frontier and the latest resume token.
type streamProgress struct {
	// frontier is the next die index owed to onDie; dies [0, frontier)
	// were delivered exactly once.
	frontier int
	// ckpt is the most recent checkpoint line (nil until one arrives).
	ckpt *YieldCheckpoint
}

// Yield runs one streamed /v1/yield request, invoking onDie (when non-nil)
// for every per-die NDJSON line as it arrives, and returns the aggregate
// statistics from the stream footer. A mid-stream server error arrives as
// an *APIError with StatusCode 200; a broken stream as a *StreamError
// carrying the die frontier.
//
// With a retry policy set, the call is self-healing: a retryable failure
// resumes the stream from its last checkpoint (requesting checkpoints every
// DefaultYieldCheckpoint dies unless the request asked for its own
// interval), suppressing dies already delivered, so onDie sees every die
// exactly once in order and the footer statistics are byte-identical to an
// unbroken stream's. Attempt and time budgets span the whole call,
// including resumes.
func (c *Client) Yield(ctx context.Context, req YieldRequest, onDie func(*DieResult) error) (*YieldStatsJSON, error) {
	prog := streamProgress{ckpt: req.Resume}
	if req.Resume != nil {
		prog.frontier = req.Resume.Ckpt
	}
	if c.Retry == nil {
		return c.yieldOnce(ctx, req, &prog, onDie)
	}
	if req.Checkpoint <= 0 {
		req.Checkpoint = DefaultYieldCheckpoint
	}
	pol := c.Retry.withDefaults()
	start := pol.Clock.Now()
	for attempt := 1; ; attempt++ {
		req.Resume = prog.ckpt
		st, err := c.yieldOnce(ctx, req, &prog, onDie)
		if err == nil || !isRetryable(err) || attempt >= pol.MaxAttempts {
			return st, err
		}
		delay := floorDelay(pol.Delay(attempt), err)
		if pol.MaxElapsed > 0 && pol.Clock.Now().Sub(start)+delay > pol.MaxElapsed {
			return nil, err
		}
		if pol.OnRetry != nil {
			pol.OnRetry(attempt, delay, err)
		}
		c.retries.Add(1)
		if serr := pol.Clock.Sleep(ctx, delay); serr != nil {
			return nil, err
		}
	}
}

// yieldOnce performs one /v1/yield attempt, advancing prog as dies and
// checkpoints arrive. Dies below the frontier (the overlap between the last
// checkpoint and the break point of a resumed stream) are suppressed, not
// re-delivered.
func (c *Client) yieldOnce(ctx context.Context, req YieldRequest, prog *streamProgress, onDie func(*DieResult) error) (*YieldStatsJSON, error) {
	resp, err := c.post(ctx, "/v1/yield", req)
	if err != nil {
		return nil, err
	}
	// The footer return leaves at most trailing whitespace unread; an
	// early error abandons the stream mid-flight. Either way, drain
	// (bounded) so the connection survives for the next request.
	defer drainClose(resp.Body)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// The footer, checkpoints and the terminal error object are the
		// only non-die lines. Discriminate by decoding a probe of their
		// marker keys — no DieResult field is named "stats", "error" or
		// "ckpt", and a marker identifies its line wherever the encoder
		// put the key, so the classification survives any server-side
		// field reordering (a raw byte-prefix check would silently
		// misread the footer as a die line the day the wire order
		// changed).
		var probe struct {
			Stats *YieldStatsJSON `json:"stats"`
			Error *string         `json:"error"`
			Ckpt  *int            `json:"ckpt"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, &StreamError{NextDie: prog.frontier, Err: fmt.Errorf("bad stream line: %w", err)}
		}
		if probe.Stats != nil {
			return probe.Stats, nil
		}
		if probe.Error != nil {
			return nil, &APIError{StatusCode: resp.StatusCode, Message: *probe.Error}
		}
		if probe.Ckpt != nil {
			var ck YieldCheckpoint
			if err := json.Unmarshal(line, &ck); err != nil {
				return nil, &StreamError{NextDie: prog.frontier, Err: fmt.Errorf("bad stream line: %w", err)}
			}
			prog.ckpt = &ck
			continue
		}
		var die DieResult
		if err := json.Unmarshal(line, &die); err != nil {
			return nil, &StreamError{NextDie: prog.frontier, Err: fmt.Errorf("bad stream line: %w", err)}
		}
		switch {
		case die.Die < prog.frontier:
			continue // resume overlap: already delivered
		case die.Die > prog.frontier:
			return nil, &StreamError{NextDie: prog.frontier, Err: fmt.Errorf("stream jumped to die %d", die.Die)}
		}
		prog.frontier++
		if onDie != nil {
			if err := onDie(&die); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &StreamError{NextDie: prog.frontier, Err: err}
	}
	return nil, &StreamError{NextDie: prog.frontier, Err: fmt.Errorf("yield stream ended without a stats footer")}
}

// getJSON issues one GET and decodes a 2xx JSON body into out; non-2xx
// responses decode into *APIError.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Stats fetches /v1/stats (retried under the client's policy).
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	err := c.doRetry(ctx, func() error {
		out = StatsResponse{}
		return c.getJSON(ctx, "/v1/stats", &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ClusterStats fetches /v1/stats and decodes it as a router's cluster
// view. Against a plain fbbd the call succeeds with no replicas — the
// presence of replicas is how callers (fbbload's multi-target mode)
// distinguish a router from a single server.
func (c *Client) ClusterStats(ctx context.Context) (*ClusterStatsResponse, error) {
	var out ClusterStatsResponse
	err := c.doRetry(ctx, func() error {
		out = ClusterStatsResponse{}
		return c.getJSON(ctx, "/v1/stats", &out)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}
