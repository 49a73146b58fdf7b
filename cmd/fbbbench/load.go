package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// lateLimit is how late a request may be sent before it counts as failed:
// beyond it the generator, not the system, set the latency.
const lateLimit = time.Second

// maxInFlight bounds the open-loop generator's outstanding requests; an
// arrival beyond it is dropped and counted as failed.
const maxInFlight = 4096

// failures breaks the failed operations down by cause.
type failures struct {
	Errors     int `json:"errors"`
	Shed       int `json:"shed"`
	Dropped    int `json:"dropped"`
	Late       int `json:"late"`
	Mismatches int `json:"mismatches"`
}

func (f failures) total() int { return f.Errors + f.Shed + f.Dropped + f.Late + f.Mismatches }

// load is the outcome of one measured phase.
type load struct {
	start, end time.Time
	attempted  int
	// lat holds the latency of every successful operation; lag how late
	// every sent operation left the generator.
	lat []time.Duration
	lag []time.Duration
	f   failures
	// firstErr is one example error, for stderr.
	firstErr error

	mu sync.Mutex
}

func (l *load) record(lat, lag time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.lag = append(l.lag, lag)
	var apiErr *serve.APIError
	switch {
	case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable:
		l.f.Shed++
	case err != nil:
		l.f.Errors++
		if l.firstErr == nil {
			l.firstErr = err
		}
	case lag > lateLimit:
		l.f.Late++
	default:
		l.lat = append(l.lat, lat)
	}
}

func (l *load) elapsed() time.Duration { return l.end.Sub(l.start) }

// opFunc performs operation id and reports its error.
type opFunc func(ctx context.Context, id int64) error

// traced wraps an HTTP operation in a client span that carries its
// request id to the servers.
func traced(tr *tracer, do opFunc) opFunc {
	if tr == nil {
		return do
	}
	return func(ctx context.Context, id int64) error {
		start := tr.now()
		err := do(withReqID(ctx, id), id)
		tr.add(span{Name: "client", Req: id, Start: start, End: tr.now()})
		return err
	}
}

// openLoop sends operation i at start + i/rate for every i < n, whether or
// not earlier ones have finished. Latency runs from each operation's due
// time, so a stall is charged to every request it delays.
func openLoop(ctx context.Context, rate float64, n int, do opFunc) *load {
	l := &load{start: time.Now()}
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	for i := 0; i < n; i++ {
		due := l.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if inFlight.Load() >= maxInFlight {
			l.mu.Lock()
			l.attempted++
			l.f.Dropped++
			l.mu.Unlock()
			continue
		}
		lag := time.Since(due)
		inFlight.Add(1)
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			defer inFlight.Add(-1)
			err := do(ctx, id)
			l.record(time.Since(due), lag, err)
		}(int64(i))
	}
	wg.Wait()
	l.end = time.Now()
	return l
}

// closedLoop runs clients callers that each send their next operation as
// soon as the previous one returns, until the deadline. Operation ids are
// handed out in order, so the inputs depend on the seed and the id alone.
func closedLoop(ctx context.Context, clients int, until time.Time, do opFunc) *load {
	l := &load{start: time.Now()}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := l.start
			for time.Now().Before(until) {
				id := next.Add(1) - 1
				sent := time.Now()
				err := do(ctx, id)
				done := time.Now()
				l.record(done.Sub(sent), sent.Sub(due), err)
				due = done
			}
		}()
	}
	wg.Wait()
	l.end = time.Now()
	return l
}

// quantile returns the q-quantile of ds by nearest rank (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}
