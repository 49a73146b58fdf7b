// Command fbbrouter is the stateless routing front door of an fbbd
// cluster: it consistent-hashes each request's design key so every
// design's expensive flow prefix is built on exactly one replica — the
// single-process coalescing guarantee extended cluster-wide.
//
// The router resolves the key without running the flow (it builds or
// parses only the netlist), watches each replica's /healthz so a draining
// or dead replica leaves the ring and its keys re-hash to the survivors,
// and fails hot or draining designs over through a bounded spill to the
// next replicas in ring order. 503s that survive the spill are forwarded
// verbatim, Retry-After intact. /v1/table1 is scattered per benchmark to
// each design's owner and gathered back in request order; GET /v1/stats
// returns the cluster view (router counters plus every replica's health
// and live stats).
//
// Usage:
//
//	fbbrouter -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//	          [-addr :8090] [-health-interval 500ms] [-spill 1]
//	          [-vnodes 64] [-forward-timeout 0s] [-breaker 3]
//	          [-max-gates 100000]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fbbrouter:", err)
		os.Exit(1)
	}
}

// run starts the router and serves until ctx is cancelled. The listen
// address is printed to stdout ("fbbrouter: listening on ...") so callers
// binding port 0 — tests, scripts — can discover the real port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fbbrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", ":8090", "listen address")
		replicas       = fs.String("replicas", "", "comma-separated fbbd base URLs (required)")
		healthInterval = fs.Duration("health-interval", 500*time.Millisecond, "replica /healthz polling period")
		spill          = fs.Int("spill", 1, "failover bound: extra replicas tried after the owner sheds (0 = none)")
		vnodes         = fs.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
		forwardTimeout = fs.Duration("forward-timeout", 0, "per-forward budget for a replica to start responding (0 = unbounded; response bodies stream without limit)")
		breaker        = fs.Int("breaker", 3, "consecutive forward failures that trip a replica out of the ring to immediate re-probe")
		maxGates       = fs.Int("max-gates", 100_000, "largest accepted design (set to the replicas' -max-gates)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, a clean exit
		}
		return err
	}
	var addrs []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-replicas is required (comma-separated fbbd base URLs)")
	}
	// RouterOptions uses 0 as "default": the flag's explicit 0 maps to the
	// options' negative ("no spill").
	sp := *spill
	if sp <= 0 {
		sp = -1
	}

	rt, err := serve.NewRouter(serve.RouterOptions{
		Replicas:         addrs,
		HealthInterval:   *healthInterval,
		Spill:            sp,
		VirtualNodes:     *vnodes,
		ForwardTimeout:   *forwardTimeout,
		BreakerThreshold: *breaker,
		MaxGates:         *maxGates,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fbbrouter: listening on http://%s (%d replicas)\n", ln.Addr(), len(addrs))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// The router is stateless: shutting down is just finishing the
	// forwards already in flight. The replicas drain themselves.
	fmt.Fprintln(stdout, "fbbrouter: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "fbbrouter: drained")
	return nil
}
