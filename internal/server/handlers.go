package server

import (
	"context"
	"net/http"
	"strings"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
)

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req api.EvaluateRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		s.core.WriteError(w, err)
		return
	}
	d, err := pixel.ParseDesign(req.Design)
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	p := pixel.Point{Design: d, Lanes: req.Lanes, Bits: req.Bits}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
	defer cancel()

	key := httpx.EvaluateKey(req.Network, p)
	res, shared, err := s.evalFlights.Do(ctx, key, func(ctx context.Context) (pixel.Result, error) {
		if err := s.limiter.acquire(ctx); err != nil {
			return pixel.Result{}, err
		}
		defer s.limiter.release()
		return s.engine.EvaluateContext(ctx, req.Network, p)
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		s.core.WriteError(w, err)
		return
	}
	designs, _, err := httpx.SweepDesigns(req)
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	points := pixel.Grid(designs, req.Lanes, req.Bits)

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
	defer cancel()

	networks := req.Networks
	byNet, shared, err := s.sweepFlights.Do(ctx, httpx.SweepKey(req, designs), func(ctx context.Context) (map[string][]pixel.Result, error) {
		if err := s.limiter.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.limiter.release()
		return s.engine.SweepNetworks(ctx, networks, points, nil)
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, sweepResponse(len(points), byNet))
}

// sweepResponse renders engine results as the /v1/sweep payload (also
// a sweep job's final result).
func sweepResponse(points int, byNet map[string][]pixel.Result) api.SweepResponse {
	resp := api.SweepResponse{Points: points, Results: make(map[string][]api.Result, len(byNet))}
	for name, results := range byNet {
		rows := make([]api.Result, len(results))
		for i, res := range results {
			rows[i] = res.SweepRow()
		}
		resp.Results[name] = rows
	}
	return resp
}

// maxInferImages bounds the image count of one /v1/infer request;
// callers with more traffic should pipeline requests and let the
// micro-batcher coalesce them.
const maxInferImages = 256

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if s.infer == nil {
		s.core.WriteError(w, &httpx.Error{
			Status: http.StatusNotImplemented,
			Code:   "not_implemented",
			Msg:    "inference serving is not enabled on this server",
		})
		return
	}
	var req api.InferRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		s.core.WriteError(w, err)
		return
	}
	if len(req.Images) == 0 {
		s.core.WriteError(w, httpx.BadRequestf("images must be non-empty"))
		return
	}
	if len(req.Images) > maxInferImages {
		s.core.WriteError(w, httpx.BadRequestf("%d images exceeds the %d-image limit", len(req.Images), maxInferImages))
		return
	}
	// Validate shape before joining a batch: a batched pass is shared,
	// so a malformed image must fail its own request here rather than
	// everyone else's downstream.
	network := strings.ToLower(strings.TrimSpace(req.Network))
	shape, err := s.infer.NetworkShape(network)
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	want := shape.H * shape.W * shape.C
	for i, img := range req.Images {
		if len(img) != want {
			s.core.WriteError(w, httpx.BadRequestf("image %d has %d values, want %dx%dx%d = %d",
				i, len(img), shape.H, shape.W, shape.C, want))
			return
		}
		for _, v := range img {
			if v < 0 || v > shape.MaxValue {
				s.core.WriteError(w, httpx.BadRequestf("image %d has value %d outside [0, %d]", i, v, shape.MaxValue))
				return
			}
		}
	}

	results, batched, err := s.batcher.Submit(r.Context(), network, req.Images)
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, api.InferResponse{Results: results, Batched: batched})
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req api.MapRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		s.core.WriteError(w, err)
		return
	}
	d, err := pixel.ParseDesign(req.Design)
	if err != nil {
		s.core.WriteError(w, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
	defer cancel()
	if err := s.limiter.acquire(ctx); err != nil {
		s.core.WriteError(w, err)
		return
	}
	defer s.limiter.release()

	sched, err := pixel.MapContext(ctx, pixel.MapSpec{
		Network:         req.Network,
		Point:           pixel.Point{Design: d, Lanes: req.Lanes, Bits: req.Bits},
		Rows:            req.Rows,
		Cols:            req.Cols,
		PhotonicWeights: req.PhotonicWeights,
	})
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, sched)
}
