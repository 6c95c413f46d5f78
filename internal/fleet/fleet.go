// Package fleet is pixeld's scale-out layer: a coordinator that
// splits sweep grids and Monte-Carlo robustness runs into shards,
// fans the shards across a fleet of worker pixelds over the public
// /v1 wire API (pixel/api), and merges the shard responses into a
// payload byte-identical to what a single pixeld would have produced.
//
// Determinism is the contract. Sweep shards are contiguous,
// cross-product-expressible blocks of the canonical design-major grid,
// so every shard sub-request is itself a valid /v1/sweep body and each
// worker prices exactly its rows of the full grid in the full grid's
// order. Robustness shards are σ-axis slices: the engine's trial seeds
// deliberately exclude σ (see internal/montecarlo), so a worker running
// a σ subset samples exactly the draws the full axis would, and the
// unperturbed baseline is σ-independent and merely cross-checked at
// merge time.
//
// Operationally the coordinator brings what a fan-out needs: per-shard
// retry with jittered exponential backoff honoring Retry-After,
// ring-successor failover, a per-worker circuit breaker in front of the
// retry path, straggler hedging once a latency window knows what "slow"
// means, /healthz probing with eviction and revival, dynamic membership
// (POST/DELETE /v1/fleet/workers rebuilds the ring without dropping
// in-flight shards), consistent-hash routing that keeps each design
// point hot in exactly one worker's result LRU, and Prometheus metrics
// under the pixelfleet_ prefix. Coordinator jobs dispatch shards as
// worker jobs and harvest their partial streams, so a worker death
// re-plans only the missing cells/σ-points (partial-result salvage),
// and with a jobs Manager the coordinator's own registry is durable —
// a restarted coordinator re-adopts fleet jobs and re-dispatches only
// unfinished work.
//
// The coordinator serves the same /v1 routes as a worker — clients
// cannot tell them apart — and is surfaced as `pixeld -coordinator`
// and the pixel/fleet facade. See docs/FLEET.md.
package fleet

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
	"pixel/internal/metrics"
)

// Defaults for the Options knobs.
const (
	DefaultShardsPerWorker    = 2
	DefaultMaxAttempts        = 4
	DefaultRetryBaseDelay     = 25 * time.Millisecond
	DefaultRetryMaxDelay      = 1 * time.Second
	DefaultHedgeMinSamples    = 8
	DefaultHedgeMinDelay      = 50 * time.Millisecond
	DefaultProbeInterval      = 1 * time.Second
	DefaultProbeFailThreshold = 3
	DefaultBreakerThreshold   = 5
	DefaultBreakerCooldown    = 5 * time.Second
	DefaultJobPollInterval    = 250 * time.Millisecond
)

// Fixed coordinator tuning.
const (
	// hedgePercentile is the shard-latency quantile that arms the
	// straggler deadline: a primary still running past it gets one
	// duplicate arm on a rotated worker order, first result wins.
	hedgePercentile = 0.95
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 2 * time.Second
	// maxSalvageRounds is how many consecutive no-progress salvage
	// rounds a fleet job tolerates before it fails with the last shard
	// error.
	maxSalvageRounds = 5
	// minShardUnits is the least work, in rows × networks, a sweep
	// shard is planned with: a sweep of u units splits into
	// clamp(u/minShardUnits, 1, shardTarget) shards. Each shard pays a
	// fixed cost (its HTTP round trip, JSON coding and the fold) that
	// a least-squares fit of shard latency against units put at about
	// 20 units of pricing on a 2-vCPU host (docs/FLEET.md, How many
	// shards).
	minShardUnits = 32
)

// Options configures a Coordinator. Workers is required; everything
// else has a serving-sane default.
type Options struct {
	// Workers are the initial worker pixeld addresses ("host:port" or
	// full base URLs). Required, at least one; the set can change at
	// runtime through POST/DELETE /v1/fleet/workers.
	Workers []string
	// HTTPClient carries shard requests. Nil means a client of the
	// coordinator's own (shardClient), whose idle connections Close
	// closes. Per-request deadlines ride on contexts, not the client.
	HTTPClient *http.Client
	// ShardsPerWorker caps the fan-out at healthy-workers x
	// ShardsPerWorker shards; a sweep too small to give each shard
	// minShardUnits of work plans fewer. <= 0 means
	// DefaultShardsPerWorker.
	ShardsPerWorker int
	// MaxAttempts is the per-arm attempt budget of one shard, the first
	// try included; successive attempts walk the shard key's ring
	// successors. <= 0 means DefaultMaxAttempts.
	MaxAttempts int
	// RetryBaseDelay is the first backoff sleep; it doubles per retry
	// up to RetryMaxDelay (each sleep jittered ±10% so a fleet of
	// coordinators cannot synchronize retries). A worker Retry-After
	// hint above the cap is honored anyway. <= 0 means the defaults.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// HedgeMinSamples is how many shard latencies a route must have
	// observed before the hedge deadline (see hedgePercentile) arms at
	// all; <= 0 means DefaultHedgeMinSamples.
	HedgeMinSamples int
	// HedgeMinDelay floors the hedge deadline so naturally-fast routes
	// do not hedge on scheduling noise; <= 0 means DefaultHedgeMinDelay.
	HedgeMinDelay time.Duration
	// ProbeInterval and ProbeFailThreshold tune the /healthz prober: a
	// worker is evicted after ProbeFailThreshold consecutive bad probes
	// (immediately when it reports "draining"), and one good probe
	// revives it. The interval is jittered ±10%. <= 0 means the
	// defaults.
	ProbeInterval      time.Duration
	ProbeFailThreshold int
	// BreakerThreshold is how many consecutive worker-attributable
	// shard failures open a worker's circuit breaker; BreakerCooldown
	// is how long it stays open before a half-open probe call is
	// allowed through. <= 0 means the defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RequestTimeout bounds one synchronous coordinator request end to
	// end, shard fan-out included; <= 0 means
	// httpx.DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxTrials bounds the per-request trial count of a robustness
	// sweep, mirroring the worker-side cap; <= 0 means
	// httpx.DefaultMaxTrials.
	MaxTrials int
	// Jobs configures the coordinator's job registry, the same type a
	// worker's server.Config.Jobs takes. With Jobs.Manager set it is
	// durable: fleet jobs snapshot their received partials there, and a
	// restarted coordinator re-adopts them and re-dispatches only the
	// still-missing work. A nil Jobs.Factory means the coordinator's
	// fleet-job factory; a nil Jobs.Logger means Logger.
	Jobs jobs.RegistryOptions
	// JobPollInterval throttles how often a fleet job polls a worker
	// job's status for partial sweep cells while its event stream is
	// quiet; <= 0 means DefaultJobPollInterval.
	JobPollInterval time.Duration
	// Logger receives structured logs; nil means slog.Default().
	Logger *slog.Logger

	// shardFloor is the sweep shard floor in units; <= 0 means
	// minShardUnits. The package's tests set 1 so that ShardsPerWorker
	// alone picks their shard counts.
	shardFloor int
}

// withDefaults returns o with every unset knob defaulted.
func (o Options) withDefaults() Options {
	o.ShardsPerWorker = httpx.OrDefault(o.ShardsPerWorker, DefaultShardsPerWorker)
	o.MaxAttempts = httpx.OrDefault(o.MaxAttempts, DefaultMaxAttempts)
	o.RetryBaseDelay = httpx.OrDefault(o.RetryBaseDelay, DefaultRetryBaseDelay)
	o.RetryMaxDelay = httpx.OrDefault(o.RetryMaxDelay, DefaultRetryMaxDelay)
	o.HedgeMinSamples = httpx.OrDefault(o.HedgeMinSamples, DefaultHedgeMinSamples)
	o.HedgeMinDelay = httpx.OrDefault(o.HedgeMinDelay, DefaultHedgeMinDelay)
	o.ProbeInterval = httpx.OrDefault(o.ProbeInterval, DefaultProbeInterval)
	o.ProbeFailThreshold = httpx.OrDefault(o.ProbeFailThreshold, DefaultProbeFailThreshold)
	o.BreakerThreshold = httpx.OrDefault(o.BreakerThreshold, DefaultBreakerThreshold)
	o.BreakerCooldown = httpx.OrDefault(o.BreakerCooldown, DefaultBreakerCooldown)
	o.RequestTimeout = httpx.OrDefault(o.RequestTimeout, httpx.DefaultRequestTimeout)
	o.MaxTrials = httpx.OrDefault(o.MaxTrials, httpx.DefaultMaxTrials)
	o.JobPollInterval = httpx.OrDefault(o.JobPollInterval, DefaultJobPollInterval)
	o.shardFloor = httpx.OrDefault(o.shardFloor, minShardUnits)
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.Jobs.Logger == nil {
		o.Jobs.Logger = o.Logger
	}
	return o
}

// shardClient is the shard client of a coordinator given none: the
// settings of http.DefaultTransport, except that all of its 100 idle
// connections may wait on one worker. DefaultTransport keeps two per
// host, so every shard call past the second concurrent one to a worker
// would dial again; here a fan-out's connections, whatever the
// membership at the time, wait idle for the next one.
func shardClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = tr.MaxIdleConns
	return &http.Client{Transport: tr}
}

// worker is one fleet member: its configured name (the metric label and
// membership key), a non-retrying API client (the coordinator's
// executor owns retry and failover so it can count them and fail over
// between workers), the health bit the prober flips, the prober's
// consecutive-failure count, and the circuit breaker in front of the
// retry path.
type worker struct {
	name       string
	client     *api.Client
	healthy    atomic.Bool
	probeFails atomic.Int32
	br         breaker
}

// Coordinator fans /v1 requests across a worker fleet. Construct with
// New; Close releases its background machinery.
type Coordinator struct {
	own     *http.Client // the shard client New built, when given none
	opts    Options
	metrics counters
	core    *httpx.Core
	prober  *prober
	reg     *jobs.Registry
	logger  *slog.Logger

	// Membership is copy-on-write behind memMu: members and ring are
	// replaced together, never mutated in place, so in-flight shards
	// keep their candidate snapshots across reconfiguration.
	memMu   sync.RWMutex
	members []*worker
	ring    *ring

	latMu sync.Mutex
	lat   map[string]*latencyWindow

	closeOnce sync.Once
}

// New builds a Coordinator over the given workers. Workers start
// healthy (optimistically — requests flow before the first probe) and
// the prober starts immediately. With a jobs Manager, persisted fleet
// jobs are re-adopted and resume before New returns.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("fleet: Options.Workers must name at least one worker")
	}
	opts = opts.withDefaults()
	var own *http.Client
	if opts.HTTPClient == nil {
		own = shardClient()
		opts.HTTPClient = own
	}
	c := &Coordinator{
		own:    own,
		opts:   opts,
		logger: opts.Logger,
		lat:    map[string]*latencyWindow{},
	}
	reg := new(metrics.Registry)
	c.metrics = newCounters(reg, c)
	members := make([]*worker, 0, len(opts.Workers))
	for _, addr := range opts.Workers {
		members = append(members, c.newWorker(addr))
	}
	c.members = members
	c.ring = newRing(opts.Workers)

	// The fleet tasks validate eagerly, as the synchronous routes do, so
	// a bad spec is refused at POST /v1/jobs before any worker sees it.
	// They dispatch shards as worker jobs, harvest partial streams as
	// work lands, and re-plan only the still-missing units when a shard
	// dies; with a jobs Manager their harvest checkpoints, so a
	// restarted coordinator re-dispatches only unfinished work.
	if opts.Jobs.Factory == nil {
		opts.Jobs.Factory = httpx.JobFactory(c.newRobustnessTask, c.newSweepTask)
	}
	c.reg = jobs.NewRegistry(opts.Jobs)
	c.core = httpx.New(httpx.Config{
		Prefix:      "pixelfleet",
		Metrics:     reg,
		RetryAfterS: 1,
		Jobs:        c.reg,
		Logger:      opts.Logger,
	})
	c.prober = startProber(c)
	return c, nil
}

// newWorker builds a fleet member from its configured address.
func (c *Coordinator) newWorker(addr string) *worker {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	w := &worker{
		name:   addr,
		client: api.NewClient(base, c.opts.HTTPClient),
		br: breaker{
			threshold: c.opts.BreakerThreshold,
			cooldown:  c.opts.BreakerCooldown,
		},
	}
	w.healthy.Store(true)
	return w
}

// membership returns the current copy-on-write member set and ring.
// The returned slice is never mutated after publication, so callers
// may hold it across blocking work.
func (c *Coordinator) membership() ([]*worker, *ring) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.members, c.ring
}

// Close stops the prober and the job registry and closes the idle
// connections of the shard client New built. Running coordinator jobs
// are cancelled; with a jobs Manager they flush a final
// checkpoint and stay persisted as unfinished, so the next coordinator
// re-adopts them and re-dispatches only the still-missing work.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.prober.shutdown()
		c.reg.Close()
		if c.own != nil {
			c.own.CloseIdleConnections()
		}
	})
}

// Serve runs the coordinator on ln until ctx is cancelled, then drains
// in-flight requests for at most drain — the same lifecycle as a
// worker pixeld, /healthz "draining" included.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return c.core.Serve(ctx, ln, drain, c.Handler(), c.Close)
}

// healthyCount returns how many members the prober currently trusts.
func (c *Coordinator) healthyCount() int {
	members, _ := c.membership()
	n := 0
	for _, w := range members {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// shardTarget is the most shards a fan-out aims for: enough to keep
// every healthy worker busy with a little over-split for balance. A
// fully-dark fleet still plans against the nominal size — the executor
// will surface the real transport errors.
func (c *Coordinator) shardTarget() int {
	n := c.healthyCount()
	if n == 0 {
		members, _ := c.membership()
		n = len(members)
	}
	return n * c.opts.ShardsPerWorker
}

// candidates orders the shard key's ring sequence healthy-first: the
// owner (or its first healthy successor) serves the shard, and
// unhealthy workers stay at the tail as a last resort so a fully-dark
// fleet surfaces the real error instead of "no workers". The slice is
// a snapshot — membership changes do not disturb shards in flight.
func (c *Coordinator) candidates(key string) []*worker {
	members, ring := c.membership()
	seq := ring.sequence(key)
	up := make([]*worker, 0, len(seq))
	var down []*worker
	for _, wi := range seq {
		w := members[wi]
		if w.healthy.Load() {
			up = append(up, w)
		} else {
			down = append(down, w)
		}
	}
	return append(up, down...)
}

// latencyWindowSize bounds the per-route shard-latency history the
// hedge deadline is computed from.
const latencyWindowSize = 128

// window returns the route's latency window, creating it on first use.
func (c *Coordinator) window(route string) *latencyWindow {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	w, ok := c.lat[route]
	if !ok {
		w = newLatencyWindow(latencyWindowSize)
		c.lat[route] = w
	}
	return w
}

// hedgeDelay is how long a shard's primary arm may run before a
// duplicate launches: the route's hedgePercentile latency, floored
// by HedgeMinDelay. No deadline exists until the window has seen
// HedgeMinSamples shards — hedging without a baseline would just
// double every request.
func (c *Coordinator) hedgeDelay(route string) (time.Duration, bool) {
	w := c.window(route)
	if w.count() < c.opts.HedgeMinSamples {
		return 0, false
	}
	d := w.percentile(hedgePercentile)
	if d < c.opts.HedgeMinDelay {
		d = c.opts.HedgeMinDelay
	}
	return d, true
}
