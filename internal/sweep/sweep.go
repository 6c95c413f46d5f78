// Package sweep is the concurrent design-space sweep engine behind the
// public SweepNetworks/EvaluateContext API and the eval experiment
// runners. It fans (network, design, lanes, bits) evaluation points out
// across a worker pool, deduplicates shared work (per-name cnn.Network
// resolution, per-point arch.Config construction) and memoizes whole
// evaluation results in a bounded LRU, so regenerating the paper's grid
// figures costs one CostNetwork call per distinct point instead of one
// per table cell.
//
// Results come back in input order regardless of worker scheduling, so
// a parallel sweep is bit-identical to the serial loop it replaced.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/slots"
)

// Point is one design point of the sweep space: a MAC design, a lane
// (wavelength) count and a bits/lane burst width.
type Point struct {
	Design arch.Design
	Lanes  int
	Bits   int
}

// String renders the point compactly ("OO/L4/B16").
func (p Point) String() string {
	return fmt.Sprintf("%s/L%d/B%d", p.Design, p.Lanes, p.Bits)
}

// Validate reports whether the point names a buildable configuration.
func (p Point) Validate() error {
	_, err := arch.NewConfig(p.Design, p.Lanes, p.Bits)
	return err
}

// Job is one unit of work: price a full inference of the named network
// at the design point.
type Job struct {
	Network string
	Point   Point
}

// Options configures an Engine.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the result LRU (entries); <= 0 means
	// DefaultCacheSize.
	CacheSize int
}

// DefaultCacheSize is the result-LRU capacity when Options.CacheSize
// is unset — large enough to hold every (network x design x lanes x
// bits) point of the paper's figures simultaneously.
const DefaultCacheSize = 4096

// RunOptions tunes one Run call.
type RunOptions struct {
	// Workers overrides the engine's pool size for this run; <= 0
	// keeps the engine default.
	Workers int
	// Progress, when non-nil, is called after each job completes with
	// the completed and total counts. Calls are serialized.
	Progress func(done, total int)
	// OnJob, when non-nil, is called once per job as soon as its cost
	// is known, with the job's slot index. Calls are serialized with
	// each other and with Progress but arrive out of slot order in
	// general; jobs restored from a checkpoint are announced up front,
	// in slot order, before any fresh evaluation. Keep the callback
	// fast — it blocks the pool's completion path.
	OnJob func(i int, c arch.NetworkCost)
}

// Engine evaluates jobs through a worker pool with memoization. The
// zero value is not usable; construct with New. An Engine is safe for
// concurrent use.
type Engine struct {
	workers int

	// nets and cfgs memoize successes only, so client input that fails
	// to resolve is never stored: nets holds the zoo networks resolved
	// so far plus AddNetwork'd ones, cfgs at most the valid points.
	mu   sync.Mutex
	nets map[string]cnn.Network
	cfgs map[Point]arch.Config
	res  *lruCache

	costCalls atomic.Int64
	cacheHits atomic.Int64
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	size := opts.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Engine{
		workers: w,
		nets:    map[string]cnn.Network{},
		cfgs:    map[Point]arch.Config{},
		res:     newLRU(size),
	}
}

// Network resolves a network by name, memoizing hits only.
func (e *Engine) Network(name string) (cnn.Network, error) {
	e.mu.Lock()
	net, ok := e.nets[name]
	e.mu.Unlock()
	if ok {
		return net, nil
	}
	net, err := cnn.ByName(name)
	if err != nil {
		return net, err
	}
	e.mu.Lock()
	e.nets[name] = net
	e.mu.Unlock()
	return net, nil
}

// AddNetwork registers a network under its own name, so jobs can refer
// to networks that are not in the built-in zoo.
func (e *Engine) AddNetwork(net cnn.Network) {
	e.mu.Lock()
	e.nets[net.Name] = net
	e.mu.Unlock()
}

// Config builds (or returns the memoized) validated configuration for
// a point. Only valid points are memoized.
func (e *Engine) Config(p Point) (arch.Config, error) {
	e.mu.Lock()
	cfg, ok := e.cfgs[p]
	e.mu.Unlock()
	if ok {
		return cfg, nil
	}
	cfg, err := arch.NewConfig(p.Design, p.Lanes, p.Bits)
	if err != nil {
		return cfg, err
	}
	e.mu.Lock()
	e.cfgs[p] = cfg
	e.mu.Unlock()
	return cfg, nil
}

// CostCalls returns how many times the engine has actually invoked
// arch.CostNetwork (cache hits do not count). It is the hook the
// cache tests use to prove a warm sweep does no pricing work.
func (e *Engine) CostCalls() int64 { return e.costCalls.Load() }

// CacheHits returns how many evaluations the result LRU has absorbed —
// the companion hook to CostCalls for serving metrics.
func (e *Engine) CacheHits() int64 { return e.cacheHits.Load() }

// Evaluate prices one job, consulting the result LRU first. The
// returned NetworkCost may be shared with other callers and must be
// treated as read-only.
func (e *Engine) Evaluate(ctx context.Context, job Job) (arch.NetworkCost, error) {
	if err := ctx.Err(); err != nil {
		return arch.NetworkCost{}, err
	}
	if c, ok := e.res.get(job); ok {
		e.cacheHits.Add(1)
		return c, nil
	}
	net, err := e.Network(job.Network)
	if err != nil {
		return arch.NetworkCost{}, err
	}
	cfg, err := e.Config(job.Point)
	if err != nil {
		return arch.NetworkCost{}, err
	}
	e.costCalls.Add(1)
	c, err := arch.CostNetwork(net, cfg)
	if err != nil {
		return arch.NetworkCost{}, err
	}
	e.res.put(job, c)
	return c, nil
}

// EvaluateNetwork is Evaluate for an explicit network value (registered
// under its name for reuse).
func (e *Engine) EvaluateNetwork(ctx context.Context, net cnn.Network, p Point) (arch.NetworkCost, error) {
	e.mu.Lock()
	if _, ok := e.nets[net.Name]; !ok {
		e.nets[net.Name] = net
	}
	e.mu.Unlock()
	return e.Evaluate(ctx, Job{Network: net.Name, Point: p})
}

// Run evaluates every job across the worker pool and returns the costs
// in job order: out[i] is jobs[i]'s cost, whatever the scheduling. The
// jobs are pre-validated serially (memoized, so this is cheap), which
// keeps validation errors deterministic: the first invalid job in
// input order is reported, exactly as the old serial loop did. On
// cancellation Run returns promptly with the context's error.
func (e *Engine) Run(ctx context.Context, jobs []Job, opts RunOptions) ([]arch.NetworkCost, error) {
	return e.RunState(ctx, jobs, NewState(jobs), opts)
}

// RunState is Run over an explicit slot store: jobs already priced in
// st (restored from a checkpoint) are skipped, the rest evaluate
// across the worker pool, and the returned slice merges both — which
// is why an interrupted-then-resumed sweep is bit-identical to an
// uninterrupted one at any worker count. The slice is st's own slots,
// not a copy: read-only. Progress counts restored slots as already
// done. st may be snapshotted concurrently while RunState is in
// flight.
func (e *Engine) RunState(ctx context.Context, jobs []Job, st *State, opts RunOptions) ([]arch.NetworkCost, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st == nil {
		st = NewState(jobs)
	}
	if st.Len() != len(jobs) {
		return nil, fmt.Errorf("%w: state has %d slots, run has %d jobs", slots.ErrSnapshotMismatch, st.Len(), len(jobs))
	}
	for _, j := range jobs {
		if _, err := e.Network(j.Network); err != nil {
			return nil, fmt.Errorf("sweep: point %s %s: %w", j.Network, j.Point, err)
		}
		if _, err := e.Config(j.Point); err != nil {
			return nil, fmt.Errorf("sweep: point %s %s: %w", j.Network, j.Point, err)
		}
	}

	workers := e.workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	if done, _ := st.Progress(); done > 0 {
		if opts.OnJob != nil {
			idx, costs := st.Export()
			for k, i := range idx {
				opts.OnJob(i, costs[k])
			}
		}
		if opts.Progress != nil {
			opts.Progress(done, len(jobs))
		}
	}
	err := st.Fill(ctx, workers, func(ctx context.Context, i int) (arch.NetworkCost, error) {
		c, err := e.Evaluate(ctx, jobs[i])
		if err != nil {
			return c, fmt.Errorf("sweep: point %s %s: %w", jobs[i].Network, jobs[i].Point, err)
		}
		return c, nil
	}, func(i int, c arch.NetworkCost, done int) {
		if opts.OnJob != nil {
			opts.OnJob(i, c)
		}
		if opts.Progress != nil {
			opts.Progress(done, len(jobs))
		}
	})
	if err != nil {
		return nil, err
	}
	return st.Values(0, len(jobs)), nil
}

// Grid enumerates the cross product of the axes in the canonical
// deterministic order: design-major, then lanes, then bits.
func Grid(designs []arch.Design, lanesAxis, bitsAxis []int) []Point {
	out := make([]Point, 0, len(designs)*len(lanesAxis)*len(bitsAxis))
	for _, d := range designs {
		for _, lanes := range lanesAxis {
			for _, bits := range bitsAxis {
				out = append(out, Point{Design: d, Lanes: lanes, Bits: bits})
			}
		}
	}
	return out
}
