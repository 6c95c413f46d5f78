package pixel

import (
	"context"
	"fmt"

	"pixel/internal/arch"
	"pixel/internal/cnn"
	sweepeng "pixel/internal/sweep"
)

// EngineOptions configures an Engine. The zero value is the default the
// package-level API runs on.
type EngineOptions struct {
	// Workers is the sweep worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the result LRU (entries); <= 0 means the engine
	// default (sweep.DefaultCacheSize, 4096).
	CacheSize int
}

// Engine is an independent evaluation engine: a worker pool with
// memoized network resolution, configuration construction and a bounded
// LRU of whole evaluation results. The package-level EvaluateContext
// and SweepNetworks run on a shared default Engine; construct your own
// when you need an isolated cache or a tuned cache size — a
// long-running server, a test that must not see another sweep's warm
// cache. An Engine is safe for concurrent use.
type Engine struct {
	eng *sweepeng.Engine
}

// NewEngine returns an engine with the given options.
func NewEngine(opts EngineOptions) *Engine {
	return &Engine{eng: sweepeng.New(sweepeng.Options{
		Workers:   opts.Workers,
		CacheSize: opts.CacheSize,
	})}
}

// CostCalls returns how many times the engine has actually priced a
// network (cache hits do not count) — the hook cache tests and serving
// metrics use to prove warm paths do no pricing work.
func (e *Engine) CostCalls() int64 { return e.eng.CostCalls() }

// CacheHits returns how many evaluations the result LRU has absorbed.
func (e *Engine) CacheHits() int64 { return e.eng.CacheHits() }

// resolveNetwork looks a network up through the engine's memo, wrapping
// misses with ErrUnknownNetwork.
func (e *Engine) resolveNetwork(name string) (cnn.Network, error) {
	net, err := e.eng.Network(name)
	if err != nil {
		return cnn.Network{}, fmt.Errorf("%w: %v", ErrUnknownNetwork, err)
	}
	return net, nil
}

// config builds the point's validated arch configuration through the
// engine's memo, wrapping range failures with ErrBadPrecision.
func (e *Engine) config(p Point) (arch.Config, error) {
	ad, err := p.Design.arch()
	if err != nil {
		return arch.Config{}, err
	}
	cfg, err := e.eng.Config(sweepeng.Point{Design: ad, Lanes: p.Lanes, Bits: p.Bits})
	if err != nil {
		return arch.Config{}, fmt.Errorf("%w: %v", ErrBadPrecision, err)
	}
	return cfg, nil
}

// EvaluateContext prices a full inference of the named network at the
// point, consulting the result LRU first. It returns promptly with the
// context's error once ctx is done.
func (e *Engine) EvaluateContext(ctx context.Context, network string, p Point) (Result, error) {
	if _, err := e.resolveNetwork(network); err != nil {
		return Result{}, err
	}
	if _, err := e.config(p); err != nil {
		return Result{}, err
	}
	c, err := e.eng.Evaluate(ctx, p.engineJob(network))
	if err != nil {
		return Result{}, err
	}
	return resultFromCost(network, p, &c), nil
}

// SweepNetworks fans one grid of design points out across several
// networks in a single worker-pool run. The result map holds one
// point-ordered slice per network; the total grid is evaluated
// concurrently with shared-work memoization across networks. For a
// resumable run, build a SweepJob instead — this is the one-shot form
// of the same machinery.
func (e *Engine) SweepNetworks(ctx context.Context, networks []string, points []Point, opts *SweepOptions) (map[string][]Result, error) {
	job, err := e.NewSweepJob(networks, points)
	if err != nil {
		return nil, err
	}
	return job.Run(ctx, opts)
}
