// Package server is pixeld's serving layer: an HTTP/JSON facade over
// the sweep engine with the production machinery a shared evaluation
// service needs — request coalescing (identical in-flight requests
// share one engine computation, layered above the engine's result
// LRU), admission control with load shedding (bounded in-flight
// semaphore, queue timeout, 429 + Retry-After), per-request deadlines
// propagated as context, Prometheus-format metrics and structured
// request logging, and graceful drain on shutdown.
//
// Routes:
//
//	POST /v1/evaluate    price one (network, design, lanes, bits) point
//	POST /v1/sweep       evaluate a grid across one or more networks
//	POST /v1/map         schedule a network onto a tile grid
//	POST /v1/robustness  Monte-Carlo variation-to-yield sweep
//	POST /v1/infer       batched quantized inference (micro-batched)
//	POST   /v1/jobs              submit a durable robustness/sweep job
//	GET    /v1/jobs/{id}         job status + partial results
//	GET    /v1/jobs/{id}/events  job progress as server-sent events
//	DELETE /v1/jobs/{id}         cancel or forget a job
//	GET  /v1/networks    the CNN zoo
//	GET  /v1/designs     the MAC designs
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text exposition
package server

import (
	"context"
	"log/slog"
	"math"
	"net"
	"time"

	"pixel"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
	"pixel/internal/metrics"
)

// Evaluator is the engine surface the server serves: single-point and
// grid evaluation plus the cache-observability hooks. *pixel.Engine
// implements it; tests substitute controllable fakes.
type Evaluator interface {
	EvaluateContext(ctx context.Context, network string, p pixel.Point) (pixel.Result, error)
	SweepNetworks(ctx context.Context, networks []string, points []pixel.Point, opts *pixel.SweepOptions) (map[string][]pixel.Result, error)
	CostCalls() int64
	CacheHits() int64
}

// RobustnessEvaluator is the optional engine surface behind
// POST /v1/robustness: a Monte-Carlo variation-to-yield sweep.
// pixel.RobustnessContext (wrapped in RobustnessFunc) implements it;
// tests substitute controllable fakes. A server without one answers
// the route with 501.
type RobustnessEvaluator interface {
	RobustnessContext(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error)
}

// RobustnessFunc adapts a plain function to RobustnessEvaluator.
type RobustnessFunc func(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error)

// RobustnessContext implements RobustnessEvaluator.
func (f RobustnessFunc) RobustnessContext(ctx context.Context, spec pixel.RobustnessSpec) (pixel.RobustnessReport, error) {
	return f(ctx, spec)
}

// Config configures a Server. Engine is required; everything else has
// a serving-sane default.
type Config struct {
	// Engine evaluates requests. Required.
	Engine Evaluator
	// Robust serves POST /v1/robustness; nil disables the route (501).
	Robust RobustnessEvaluator
	// Infer serves POST /v1/infer; nil disables the route (501).
	// PixelInfer{} wires the route to the pixel facade.
	Infer InferEvaluator
	// BatchSize is the image count at which a pending /v1/infer batch
	// dispatches at once as a pass of its own, without waiting for the
	// running pass of its network to end; <= 0 means DefaultBatchSize.
	// A request for an idle network never waits.
	BatchSize int
	// MaxTrials bounds the per-request trial count of a robustness
	// sweep; <= 0 means httpx.DefaultMaxTrials. Requests above it are
	// rejected with 400 before any work starts.
	MaxTrials int
	// MaxInFlight bounds concurrently evaluating requests (after
	// coalescing — followers of a shared flight do not hold slots);
	// <= 0 means DefaultMaxInFlight.
	MaxInFlight int
	// QueueTimeout is how long an over-limit request waits for a slot
	// before being shed with 429; <= 0 means DefaultQueueTimeout.
	QueueTimeout time.Duration
	// RequestTimeout is the per-request evaluation deadline, enforced
	// via context through the engine; <= 0 means
	// httpx.DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Jobs enables the durable asynchronous job routes (/v1/jobs and
	// friends); nil disables them (501). With Jobs.Manager set, jobs
	// checkpoint there and a restarted server re-adopts unfinished ones
	// and resumes them bit-exactly (see docs/JOBS.md). A nil
	// Jobs.Factory means the built-in robustness and sweep factory; a
	// nil Jobs.Logger means Logger.
	Jobs *jobs.RegistryOptions
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
}

// Defaults for the Config knobs (also the pixeld flag defaults).
const (
	DefaultMaxInFlight  = 64
	DefaultQueueTimeout = 250 * time.Millisecond
)

// Server is the HTTP evaluation service. Construct with New; the zero
// value is not usable.
type Server struct {
	engine         Evaluator
	robust         RobustnessEvaluator
	infer          InferEvaluator
	batcher        *microBatcher
	maxTrials      int
	limiter        *limiter
	metrics        counters
	core           *httpx.Core
	requestTimeout time.Duration

	evalFlights   *flightGroup[pixel.Result]
	sweepFlights  *flightGroup[map[string][]pixel.Result]
	robustFlights *flightGroup[pixel.RobustnessReport]

	registry *jobs.Registry
}

// New builds a Server from cfg, applying defaults to unset knobs.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	queueTimeout := httpx.OrDefault(cfg.QueueTimeout, DefaultQueueTimeout)
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	reg := new(metrics.Registry)
	s := &Server{
		engine:         cfg.Engine,
		robust:         cfg.Robust,
		infer:          cfg.Infer,
		maxTrials:      httpx.OrDefault(cfg.MaxTrials, httpx.DefaultMaxTrials),
		limiter:        newLimiter(httpx.OrDefault(cfg.MaxInFlight, DefaultMaxInFlight), queueTimeout),
		metrics:        newCounters(reg, cfg.Engine),
		requestTimeout: httpx.OrDefault(cfg.RequestTimeout, httpx.DefaultRequestTimeout),
		evalFlights:    newFlightGroup[pixel.Result](),
		sweepFlights:   newFlightGroup[map[string][]pixel.Result](),
		robustFlights:  newFlightGroup[pixel.RobustnessReport](),
	}
	if s.infer != nil {
		// The batched pass — not each waiting request — holds the
		// admission slot: B coalesced images cost one in-flight unit,
		// which is exactly the point of batching.
		s.batcher = newMicroBatcher(func(ctx context.Context, network string, images [][]int64) ([]pixel.InferResult, error) {
			ctx, cancel := context.WithTimeout(ctx, s.requestTimeout)
			defer cancel()
			return admit(s.limiter, ctx, func(ctx context.Context) ([]pixel.InferResult, error) {
				s.metrics.inferBatches.Add(1)
				s.metrics.inferImages.Add(int64(len(images)))
				return s.infer.InferContext(ctx, pixel.InferSpec{Network: network, Images: images})
			})
		}, cfg.BatchSize)
	}
	if cfg.Jobs != nil {
		opts := *cfg.Jobs
		if opts.Factory == nil {
			opts.Factory = httpx.JobFactory(s.newRobustnessTask, s.newSweepTask)
		}
		if opts.Logger == nil {
			opts.Logger = logger
		}
		s.registry = jobs.NewRegistry(opts)
	}
	s.core = httpx.New(httpx.Config{
		Prefix:  "pixeld",
		Metrics: reg,
		Shed:    s.metrics.shed,
		// Shed requests are told to come back once the queue timeout
		// has had a chance to drain, never sooner than a second.
		RetryAfterS: int(math.Ceil(math.Max(queueTimeout.Seconds(), 1))),
		Jobs:        s.registry,
		Logger:      logger,
	})
	return s
}

// Serve runs the service on ln until ctx is cancelled, then drains
// in-flight requests for at most drain before forcing connections
// closed. It returns once shutdown completes (nil on a clean drain).
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return s.core.Serve(ctx, ln, drain, s.Handler(), func() {
		if s.batcher != nil {
			// In-flight /v1/infer handlers finished during the HTTP
			// drain; this waits out any pass still fanning out.
			s.batcher.Close()
		}
		// Running jobs flush a final checkpoint and persist as
		// unfinished, so the next pixeld process re-adopts them.
		s.Close()
	})
}
