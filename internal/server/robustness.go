package server

import (
	"context"
	"net/http"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
)

func (s *Server) handleRobustness(w http.ResponseWriter, r *http.Request) {
	if s.robust == nil {
		s.core.WriteError(w, &httpx.Error{
			Status: http.StatusNotImplemented,
			Code:   "not_implemented",
			Msg:    "robustness sweeps are not enabled on this server",
		})
		return
	}
	var req api.RobustnessRequest
	if err := httpx.DecodeJSON(w, r, &req); err != nil {
		s.core.WriteError(w, err)
		return
	}
	spec, err := httpx.RobustnessSpec(req, s.maxTrials)
	if err != nil {
		s.core.WriteError(w, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
	defer cancel()

	// Identical concurrent requests share one engine run.
	rep, shared, err := s.robustFlights.Do(ctx, httpx.RobustnessKey(req), func(ctx context.Context) (pixel.RobustnessReport, error) {
		if err := s.limiter.acquire(ctx); err != nil {
			return pixel.RobustnessReport{}, err
		}
		defer s.limiter.release()
		return s.robust.RobustnessContext(ctx, spec)
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.core.WriteError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, rep)
}
