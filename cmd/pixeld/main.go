// Command pixeld serves the PIXEL evaluation API over HTTP: single
// design-point pricing, grid sweeps, tile-grid scheduling,
// Monte-Carlo variation-to-yield sweeps (POST /v1/robustness, capped
// at -max-trials trials per request) and micro-batched quantized
// inference (POST /v1/infer; a request for an idle network runs at
// once, and requests that arrive while its pass runs coalesce into the
// next word-parallel engine pass, which dispatches at once as a pass of
// its own once it holds -batch-size images), backed by the concurrent
// memoizing sweep engine with request coalescing, admission control and
// Prometheus metrics (see internal/server, docs/SERVER.md and
// docs/SERVING.md).
//
// Long robustness and sweep runs can also be submitted as durable
// asynchronous jobs (POST /v1/jobs; status, SSE progress streaming and
// cancellation under /v1/jobs/{id}). With -jobs-dir the jobs
// checkpoint to disk and a restarted pixeld re-adopts and resumes
// unfinished ones bit-exactly (see docs/JOBS.md).
//
// With -pprof-addr pixeld additionally serves the net/http/pprof
// profiling endpoints (/debug/pprof/...) on a separate listener, off
// by default and intended for loopback only.
//
// With -coordinator pixeld runs as a fleet coordinator instead of a
// worker: it serves the same /v1 surface but fans sweeps and
// robustness runs out across the named worker pixelds, merging shard
// responses byte-identically to a single node. The worker set can
// change at runtime (POST/DELETE /v1/fleet/workers), a worker death
// mid-job costs only its unfinished cells/σ-points (partial-result
// salvage), and -jobs-dir makes coordinator jobs durable across
// coordinator restarts (see docs/FLEET.md). Both roles share one flag
// set and run path; a worker-only flag given with -coordinator, or a
// negative count or duration, is a startup error (0 means the default;
// docs/SERVER.md lists each flag's role).
//
// Usage:
//
//	pixeld -addr :8764
//	pixeld -addr 127.0.0.1:0 -max-inflight 32 -queue-timeout 100ms -cache-size 8192
//	pixeld -addr :8764 -batch-size 64
//	pixeld -addr :8764 -jobs-dir /var/lib/pixeld/jobs -job-ttl 1h
//	pixeld -addr :8764 -pprof-addr 127.0.0.1:6060
//	pixeld -addr :8765 -coordinator 127.0.0.1:8764,127.0.0.1:8766
//
// pixeld prints "pixeld: listening on <host:port>" once the listener
// is bound (so :0 callers can discover the port) and drains in-flight
// requests on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pixel"
	"pixel/internal/fleet"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
	"pixel/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pixeld:", err)
		os.Exit(1)
	}
}

// config is one parsed command line: the listener settings both roles
// share and the chosen role's configuration — coord for a coordinator,
// worker (plus its engine options) otherwise.
type config struct {
	addr, pprofAddr string
	drain           time.Duration
	worker          server.Config
	engine          pixel.EngineOptions
	coord           *fleet.Options
}

// workerOnly names the flags only the worker role reads.
var workerOnly = map[string]bool{
	"batch-size": true, "cache-size": true,
	"workers": true, "max-inflight": true, "queue-timeout": true,
}

// parseFlags parses args into the chosen role's config. With -jobs-dir
// it also opens the jobs directory both roles checkpoint to.
func parseFlags(args []string) (config, error) {
	var (
		c           config
		w           server.Config
		jo          jobs.RegistryOptions
		jobsDir     string
		coordinator string
	)
	fs := flag.NewFlagSet("pixeld", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8764", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "listen address for net/http/pprof profiling endpoints on a separate listener (empty = disabled); bind loopback, the endpoints are unauthenticated")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful-shutdown drain deadline")
	fs.StringVar(&coordinator, "coordinator", "", "run as a fleet coordinator over this comma-separated worker list (host:port,...) instead of evaluating locally")
	fs.DurationVar(&w.RequestTimeout, "request-timeout", httpx.DefaultRequestTimeout, "per-request evaluation deadline")
	fs.IntVar(&w.MaxTrials, "max-trials", httpx.DefaultMaxTrials, "max Monte-Carlo trials per /v1/robustness request")
	fs.StringVar(&jobsDir, "jobs-dir", "", "directory for durable-job checkpoints; restarts re-adopt unfinished jobs (empty = in-memory jobs only)")
	fs.DurationVar(&jo.TTL, "job-ttl", jobs.DefaultTTL, "how long finished jobs stay queryable before eviction")
	fs.IntVar(&jo.MaxJobs, "max-jobs", jobs.DefaultMaxJobs, "max jobs tracked before POST /v1/jobs answers 429")
	fs.IntVar(&jo.MaxRunning, "max-running-jobs", jobs.DefaultMaxRunning, "max concurrently executing jobs; the rest queue")
	fs.IntVar(&w.MaxInFlight, "max-inflight", server.DefaultMaxInFlight, "worker only: max concurrently evaluating requests before shedding")
	fs.DurationVar(&w.QueueTimeout, "queue-timeout", server.DefaultQueueTimeout, "worker only: how long an over-limit request queues before a 429")
	fs.IntVar(&c.engine.CacheSize, "cache-size", 0, "worker only: result-LRU capacity in entries (0 = engine default)")
	fs.IntVar(&c.engine.Workers, "workers", 0, "worker only: sweep worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&w.BatchSize, "batch-size", server.DefaultBatchSize, "worker only: image count at which a pending /v1/infer batch dispatches at once as a pass of its own")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	var bad error
	fs.Visit(func(f *flag.Flag) {
		if bad == nil {
			bad = checkFlag(f, coordinator != "")
		}
	})
	if bad != nil {
		return config{}, bad
	}
	if jobsDir != "" {
		var err error
		if jo.Manager, err = jobs.NewManager(jobsDir); err != nil {
			return config{}, err
		}
	}
	if coordinator == "" {
		w.Jobs = &jo
		c.worker = w
		return c, nil
	}
	c.coord = &fleet.Options{RequestTimeout: w.RequestTimeout, MaxTrials: w.MaxTrials, Jobs: jo}
	for _, addr := range strings.Split(coordinator, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			c.coord.Workers = append(c.coord.Workers, addr)
		}
	}
	return c, nil
}

// checkFlag rejects a worker-only flag given to a coordinator and a
// negative count or duration.
func checkFlag(f *flag.Flag, coordinator bool) error {
	if coordinator && workerOnly[f.Name] {
		return fmt.Errorf("-%s is a worker flag; -coordinator does not use it", f.Name)
	}
	negative := false
	switch v := f.Value.(flag.Getter).Get().(type) {
	case int:
		negative = v < 0
	case time.Duration:
		negative = v < 0
	}
	if negative {
		return fmt.Errorf("-%s %s: must not be negative (0 means the default)", f.Name, f.Value)
	}
	return nil
}

// role is what the listener serves: a worker *server.Server or a
// *fleet.Coordinator.
type role interface {
	Serve(ctx context.Context, ln net.Listener, drain time.Duration) error
}

// newRole builds the configured role.
func (c config) newRole(logger *slog.Logger) (role, error) {
	if c.coord != nil {
		opts := *c.coord
		opts.Logger = logger
		return fleet.New(opts)
	}
	w := c.worker
	w.Engine = pixel.NewEngine(c.engine)
	w.Robust = server.RobustnessFunc(pixel.RobustnessContext)
	w.Infer = server.PixelInfer{}
	w.Logger = logger
	return server.New(w), nil
}

// run serves the role args configure until ctx is cancelled, then
// drains. Both roles share this path; only the role differs.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	// The profiling listener is separate from the API listener so
	// operational exposure is an explicit choice: the API port can face
	// a load balancer while pprof stays on loopback. DefaultServeMux
	// carries the net/http/pprof handlers via its init registration.
	if c.pprofAddr != "" {
		pln, err := net.Listen("tcp", c.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(stdout, "pixeld: pprof on %s\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil && ctx.Err() == nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	r, err := c.newRole(logger)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pixeld: listening on %s\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "coordinator", c.coord != nil, "pprof", c.pprofAddr)
	return r.Serve(ctx, ln, c.drain)
}
