// Package fleet is the public facade over pixel's scale-out
// coordinator (internal/fleet): point it at a set of worker pixeld
// addresses and it serves — or lets you call directly — the same /v1
// surface as a single pixeld, with sweep grids and Monte-Carlo
// robustness runs sharded across the workers and merged back
// byte-identically. See docs/FLEET.md for the full contract and
// `pixeld -coordinator` for the command-line form.
package fleet

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"time"

	"pixel/api"
	"pixel/internal/fleet"
	"pixel/internal/jobs"
)

// Options configures a Fleet. Workers is required; zero values take
// the coordinator's serving defaults (see internal/fleet.Options).
type Options struct {
	// Workers are the worker pixeld addresses ("host:port" or full base
	// URLs). Required, at least one.
	Workers []string
	// HTTPClient carries shard requests; nil means a client of the
	// fleet's own, whose idle connections Close closes.
	HTTPClient *http.Client
	// ShardsPerWorker caps the fan-out: a request splits into at most
	// healthy-workers x ShardsPerWorker shards, and a sweep into fewer
	// when it is too small to give each shard 32 rows x networks of
	// work.
	ShardsPerWorker int
	// RequestTimeout bounds one synchronous request end to end, shard
	// fan-out included.
	RequestTimeout time.Duration
	// MaxTrials bounds the per-request trial count of a robustness run,
	// mirroring the worker-side cap.
	MaxTrials int
	// MaxJobs, MaxRunningJobs and JobTTL configure the coordinator's
	// job registry, like the worker flags of the same names.
	MaxJobs        int
	MaxRunningJobs int
	JobTTL         time.Duration
	// JobsDir makes coordinator jobs durable: their shard harvest
	// checkpoints there, and a restarted coordinator re-adopts them and
	// re-dispatches only unfinished work. Empty keeps jobs in memory.
	JobsDir string
	// Logger receives structured logs; nil means slog.Default().
	Logger *slog.Logger
}

// Fleet fans pixel API calls across a set of worker pixelds.
type Fleet struct {
	c *fleet.Coordinator
}

// New builds a Fleet over the given workers. Close it when done — the
// health prober runs from construction.
func New(opts Options) (*Fleet, error) {
	var mgr *jobs.Manager
	if opts.JobsDir != "" {
		var err error
		if mgr, err = jobs.NewManager(opts.JobsDir); err != nil {
			return nil, err
		}
	}
	c, err := fleet.New(fleet.Options{
		Workers:         opts.Workers,
		HTTPClient:      opts.HTTPClient,
		ShardsPerWorker: opts.ShardsPerWorker,
		RequestTimeout:  opts.RequestTimeout,
		MaxTrials:       opts.MaxTrials,
		Jobs: jobs.RegistryOptions{
			Manager:    mgr,
			MaxJobs:    opts.MaxJobs,
			MaxRunning: opts.MaxRunningJobs,
			TTL:        opts.JobTTL,
		},
		Logger: opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Fleet{c: c}, nil
}

// Evaluate prices one design point on the point's home worker.
func (f *Fleet) Evaluate(ctx context.Context, req api.EvaluateRequest) (api.Result, error) {
	return f.c.Evaluate(ctx, req)
}

// Sweep evaluates a grid across the fleet and merges the shard
// responses into the payload a single pixeld would have produced.
func (f *Fleet) Sweep(ctx context.Context, req api.SweepRequest) (api.SweepResponse, error) {
	return f.c.Sweep(ctx, req)
}

// Robustness runs a Monte-Carlo variation sweep sharded along the σ
// axis, bit-identical to a single-node run.
func (f *Fleet) Robustness(ctx context.Context, req api.RobustnessRequest) (api.RobustnessResponse, error) {
	return f.c.Robustness(ctx, req)
}

// Map schedules a network onto a tile grid on the request's home
// worker.
func (f *Fleet) Map(ctx context.Context, req api.MapRequest) (api.MapResponse, error) {
	return f.c.Map(ctx, req)
}

// Infer forwards a batch to the network's home worker so fleet traffic
// for one network shares that worker's micro-batcher.
func (f *Fleet) Infer(ctx context.Context, req api.InferRequest) (api.InferResponse, error) {
	return f.c.Infer(ctx, req)
}

// Workers snapshots the fleet roster with each member's health and
// circuit-breaker state.
func (f *Fleet) Workers() []api.FleetWorker { return f.c.Workers() }

// AddWorker admits a worker into the fleet at runtime, rebuilding the
// consistent-hash ring without disturbing in-flight shards.
func (f *Fleet) AddWorker(addr string) error { return f.c.AddWorker(addr) }

// RemoveWorker retires a worker from the fleet; its keys move to ring
// successors for everything planned afterwards.
func (f *Fleet) RemoveWorker(addr string) error { return f.c.RemoveWorker(addr) }

// Handler returns the coordinator's HTTP routing tree — the same /v1
// surface as a worker pixeld.
func (f *Fleet) Handler() http.Handler { return f.c.Handler() }

// Serve runs the coordinator on ln until ctx is cancelled, then drains
// in-flight requests for at most drain.
func (f *Fleet) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return f.c.Serve(ctx, ln, drain)
}

// Close stops the health prober and cancels running coordinator jobs.
func (f *Fleet) Close() { f.c.Close() }
