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
		"POST /v1/evaluate":        serve(c, c.Evaluate),
		"POST /v1/sweep":           serve(c, c.Sweep),
		"POST /v1/map":             serve(c, c.Map),
		"POST /v1/robustness":      serve(c, c.Robustness),
		"POST /v1/infer":           serve(c, c.Infer),
		"GET /v1/fleet/workers":    c.handleWorkersList,
		"POST /v1/fleet/workers":   c.handleWorkerAdd,
		"DELETE /v1/fleet/workers": c.handleWorkerRemove,
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

// serve adapts one synchronous fan-out to a route: decode the body
// strictly, refuse up front when the fleet has no healthy member (a
// uniform 503 instead of whatever transport error the first doomed
// shard would produce), bound the fan-out by RequestTimeout end to
// end, and render the merged response.
func serve[Req, Resp any](c *Coordinator, run func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := httpx.DecodeJSON(w, r, &req); err != nil {
			c.core.WriteError(w, err)
			return
		}
		if c.healthyCount() == 0 {
			c.core.WriteError(w, errNoHealthyWorkers())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), c.opts.RequestTimeout)
		defer cancel()
		resp, err := run(ctx, req)
		if err != nil {
			c.core.WriteError(w, err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	}
}
