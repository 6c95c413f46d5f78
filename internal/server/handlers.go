package server

import (
	"context"
	"net/http"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
)

// Handler returns the server's routing tree with logging and metrics
// middleware applied. Every /v1 request route is an httpx.Route over
// one of the methods below; /v1/infer has no route deadline because
// the batcher bounds each pass.
func (s *Server) Handler() http.Handler {
	c, timeout := s.core, s.requestTimeout
	robustness := c.NotImplemented("robustness sweeps are not enabled on this server")
	if s.robust != nil {
		robustness = httpx.Route(c, timeout, s.robustness)
	}
	infer := c.NotImplemented("inference serving is not enabled on this server")
	if s.infer != nil {
		infer = httpx.Route(c, 0, s.inferBatch)
	}
	return c.Mux(map[string]http.HandlerFunc{
		"POST /v1/evaluate":   httpx.Route(c, timeout, s.evaluate),
		"POST /v1/sweep":      httpx.Route(c, timeout, s.sweep),
		"POST /v1/map":        httpx.Route(c, timeout, s.schedule),
		"POST /v1/robustness": robustness,
		"POST /v1/infer":      infer,
	})
}

// coalesce runs fn once for every identical in-flight request under
// key in g, holding one admission slot per run (followers of a shared
// flight hold none), and counts each follower.
func coalesce[V any](s *Server, ctx context.Context, g *flightGroup[V], key string, fn func(context.Context) (V, error)) (V, error) {
	v, shared, err := g.Do(ctx, key, func(ctx context.Context) (V, error) {
		return admit(s.limiter, ctx, fn)
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	return v, err
}

func (s *Server) evaluate(ctx context.Context, req api.EvaluateRequest) (pixel.Result, error) {
	p, err := httpx.EvaluatePoint(req)
	if err != nil {
		return pixel.Result{}, err
	}
	return coalesce(s, ctx, s.evalFlights, httpx.EvaluateKey(req.Network, p), func(ctx context.Context) (pixel.Result, error) {
		return s.engine.EvaluateContext(ctx, req.Network, p)
	})
}

func (s *Server) sweep(ctx context.Context, req api.SweepRequest) (api.SweepResponse, error) {
	designs, _, err := httpx.SweepDesigns(req)
	if err != nil {
		return api.SweepResponse{}, err
	}
	points := pixel.Grid(designs, req.Lanes, req.Bits)
	byNet, err := coalesce(s, ctx, s.sweepFlights, httpx.SweepKey(req, designs), func(ctx context.Context) (map[string][]pixel.Result, error) {
		return s.engine.SweepNetworks(ctx, req.Networks, points, nil)
	})
	if err != nil {
		return api.SweepResponse{}, err
	}
	return api.SweepResponse{Points: len(points), Results: byNet}, nil
}

// schedule serves /v1/map: admitted, never coalesced.
func (s *Server) schedule(ctx context.Context, req api.MapRequest) (api.MapResponse, error) {
	spec, err := httpx.MapSpec(req)
	if err != nil {
		return api.MapResponse{}, err
	}
	return admit(s.limiter, ctx, func(ctx context.Context) (api.MapResponse, error) {
		return pixel.MapContext(ctx, spec)
	})
}

func (s *Server) robustness(ctx context.Context, req api.RobustnessRequest) (pixel.RobustnessReport, error) {
	spec, err := httpx.RobustnessSpec(req, s.maxTrials)
	if err != nil {
		return pixel.RobustnessReport{}, err
	}
	return coalesce(s, ctx, s.robustFlights, httpx.RobustnessKey(req), func(ctx context.Context) (pixel.RobustnessReport, error) {
		return s.robust.RobustnessContext(ctx, spec)
	})
}

// inferBatch validates a /v1/infer request before it joins a batch, so
// a malformed image fails only its own request.
func (s *Server) inferBatch(ctx context.Context, req api.InferRequest) (api.InferResponse, error) {
	network, err := httpx.InferNetwork(req, s.infer.NetworkShape)
	if err != nil {
		return api.InferResponse{}, err
	}
	results, batched, err := s.batcher.Submit(ctx, network, req.Images)
	if err != nil {
		return api.InferResponse{}, err
	}
	return api.InferResponse{Results: results, Batched: batched}, nil
}
