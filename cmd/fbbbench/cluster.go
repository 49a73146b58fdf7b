package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
)

// replicas is the cluster size every HTTP workload runs against.
const replicas = 3

// cluster is an in-process fbbd deployment: replicas serve.Servers and one
// serve.Router, each behind its own loopback listener, all with production
// defaults. With a tracer, the handlers and the router's forwarding client
// are wrapped to record spans; the servers themselves are unchanged.
type cluster struct {
	router *serve.Router
	https  []*http.Server
	url    string // the router's base URL
	// client is the load generator's client: no retry policy, and at most
	// nproc connections, so every failure counts and the generator cannot
	// open more sockets than the host has cores.
	client *serve.Client
	// idle closes the load client's pooled connections.
	idle func()
	// serving waits for the listeners' Serve goroutines.
	serving sync.WaitGroup
}

func startCluster(tr *tracer) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, 0, replicas)
	for i := 0; i < replicas; i++ {
		var h http.Handler = serve.New(serve.Options{}).Handler()
		if tr != nil {
			h = tr.middleware("fbbd", "router.forward", h)
		}
		u, err := c.listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	ropts := serve.RouterOptions{Replicas: urls}
	if tr != nil {
		ropts.HTTPClient = &http.Client{Transport: &forwardTripper{tr: tr, next: http.DefaultTransport}}
	}
	rt, err := serve.NewRouter(ropts)
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.middleware("router", "client", h)
	}
	if c.url, err = c.listen(h); err != nil {
		c.close()
		return nil, err
	}

	n := runtime.NumCPU()
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxConnsPerHost = n
	tp.MaxIdleConnsPerHost = n
	c.idle = tp.CloseIdleConnections
	var rtp http.RoundTripper = tp
	if tr != nil {
		rtp = &clientTripper{next: tp}
	}
	c.client = serve.NewClientWith(c.url, &http.Client{Transport: rtp})
	return c, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.https = append(c.https, hs)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		// A listener that dies mid-run surfaces as request errors, which
		// the run counts; the cause goes to stderr.
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "fbbbench: loopback server:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router's health loops and shuts every listener down,
// waiting for in-flight requests.
func (c *cluster) close() {
	if c.idle != nil {
		c.idle()
	}
	if c.router != nil {
		c.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The router listener is last in https: shut it first so no new
	// forwards start while the replicas drain.
	for i := len(c.https) - 1; i >= 0; i-- {
		if err := c.https[i].Shutdown(ctx); err != nil {
			c.https[i].Close() // a request outlived the timeout: cut it
		}
	}
	c.serving.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// stats reads the router's cluster view.
func (c *cluster) stats() (*serve.ClusterStatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cs, err := serve.NewClient(c.url).ClusterStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster stats: %w", err)
	}
	for _, r := range cs.Replicas {
		if r.Stats == nil {
			return nil, fmt.Errorf("cluster stats: replica %s: %s", r.Addr, r.Err)
		}
	}
	return cs, nil
}
