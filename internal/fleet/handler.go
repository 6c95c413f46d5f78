package fleet

import (
	"context"
	"net/http"

	"pixel/internal/httpx"
)

// Handler returns the coordinator's routing tree: the same routes with
// the same envelopes as a worker pixeld, so clients point at a
// coordinator with zero changes, plus the membership routes.
func (c *Coordinator) Handler() http.Handler {
	return c.core.Mux(map[string]http.HandlerFunc{
		"POST /v1/evaluate":        route(c, c.Evaluate),
		"POST /v1/sweep":           route(c, c.Sweep),
		"POST /v1/map":             route(c, c.Map),
		"POST /v1/robustness":      route(c, c.Robustness),
		"POST /v1/infer":           route(c, c.Infer),
		"GET /v1/fleet/workers":    c.handleWorkersList,
		"POST /v1/fleet/workers":   c.roster(c.AddWorker),
		"DELETE /v1/fleet/workers": c.roster(c.RemoveWorker),
	})
}

// errNoHealthyWorkers is the uniform refusal for synchronous fan-out
// when every fleet member is evicted: a 503 with its own wire code (not
// a generic 502 from whichever shard happened to fail first) and a
// Retry-After hint, so clients can tell "fleet temporarily empty" from
// a worker-side failure. Fleet jobs never surface this — they park and
// wait for the prober to revive somebody.
func errNoHealthyWorkers() error {
	return &httpx.Error{
		Status:      http.StatusServiceUnavailable,
		Code:        "no_healthy_workers",
		Msg:         "no healthy workers in the fleet; retry shortly",
		RetryAfterS: 1,
	}
}

// route serves one synchronous fan-out through the worker's request
// path (httpx.Route), bounded by RequestTimeout end to end. After the
// body decodes, a fleet with no healthy member refuses up front: a
// uniform 503 instead of whatever transport error the first doomed
// shard would produce.
func route[Req, Resp any](c *Coordinator, run func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return httpx.Route(c.core, c.opts.RequestTimeout, func(ctx context.Context, req Req) (Resp, error) {
		if c.healthyCount() == 0 {
			var zero Resp
			return zero, errNoHealthyWorkers()
		}
		return run(ctx, req)
	})
}
