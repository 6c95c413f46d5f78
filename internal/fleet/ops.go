package fleet

import (
	"context"

	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/parallel"
)

// Evaluate prices one design point through the fleet. The routing key
// is exactly the worker's request-coalescing key, so every design
// point has one home worker and stays hot in that worker's result LRU.
func (c *Coordinator) Evaluate(ctx context.Context, req api.EvaluateRequest) (api.Result, error) {
	p, err := httpx.EvaluatePoint(req)
	if err != nil {
		return api.Result{}, err
	}
	return runShard(ctx, c, "/v1/evaluate", httpx.EvaluateKey(req.Network, p), func(ctx context.Context, cl *api.Client) (api.Result, error) {
		return cl.Evaluate(ctx, req)
	})
}

// Sweep evaluates a grid across the fleet as one synchronous round of
// the sweep job's plan → fold → finalize: the grid splits into
// cross-product shards, each runs on its ring-routed worker with
// retry, failover and hedging, and the cells merge into the
// single-node payload (see fleetSweepTask.finalize for why it is
// byte-identical). The first shard failure cancels the rest and fails
// the request: a synchronous request never salvages and never parks.
func (c *Coordinator) Sweep(ctx context.Context, req api.SweepRequest) (api.SweepResponse, error) {
	t, err := c.newSweepTask(req)
	if err != nil {
		return api.SweepResponse{}, err
	}
	rows, _ := t.cells.MissingRows()
	shards := t.plan(rows, c.shardTarget())
	c.metrics.fanout.Observe(float64(len(shards)), "/v1/sweep")
	if err := parallel.For(ctx, len(shards), len(shards), func(ctx context.Context, i int) error {
		return t.runSync(ctx, shards[i], func(string, any) {})
	}); err != nil {
		return api.SweepResponse{}, err
	}
	return t.finalize()
}

// Robustness runs a Monte-Carlo variation sweep across the fleet as
// one synchronous round of the robustness job's plan → fold →
// finalize, sharded along the σ axis; it fails like Sweep.
func (c *Coordinator) Robustness(ctx context.Context, req api.RobustnessRequest) (api.RobustnessResponse, error) {
	t, err := c.newRobustnessTask(req)
	if err != nil {
		return api.RobustnessResponse{}, err
	}
	shards := t.planMissing(t.points.Missing(), c.shardTarget())
	c.metrics.fanout.Observe(float64(len(shards)), "/v1/robustness")
	if err := parallel.For(ctx, len(shards), len(shards), func(ctx context.Context, i int) error {
		return t.runSync(ctx, shards[i], func(string, any) {})
	}); err != nil {
		return api.RobustnessResponse{}, err
	}
	return t.finalize(ctx)
}

// Map schedules a network onto a tile grid on the request's home
// worker (the schedule is cheap; routing just spreads load and keeps
// repeats cache-warm).
func (c *Coordinator) Map(ctx context.Context, req api.MapRequest) (api.MapResponse, error) {
	spec, err := httpx.MapSpec(req)
	if err != nil {
		return api.MapResponse{}, err
	}
	return runShard(ctx, c, "/v1/map", "map|"+httpx.MapKey(spec), func(ctx context.Context, cl *api.Client) (api.MapResponse, error) {
		return cl.Map(ctx, req)
	})
}

// Infer forwards a batch to the network's home worker, so all fleet
// traffic for one demo network funnels into one worker's micro-batcher
// and weight caches.
func (c *Coordinator) Infer(ctx context.Context, req api.InferRequest) (api.InferResponse, error) {
	return runShard(ctx, c, "/v1/infer", "infer|"+httpx.InferKey(req), func(ctx context.Context, cl *api.Client) (api.InferResponse, error) {
		return cl.Infer(ctx, req)
	})
}
