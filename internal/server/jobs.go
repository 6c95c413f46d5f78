package server

import (
	"context"
	"encoding/json"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
	"pixel/internal/slots"
)

// Close releases the server's background machinery (the job registry;
// running jobs flush a final checkpoint and persist as unfinished).
// Serve calls it after drain; call it directly when using Handler with
// your own http.Server.
func (s *Server) Close() {
	if s.registry != nil {
		s.registry.Close()
	}
}

// buildJobTask is the built-in jobs.Factory: it validates the spec with
// the same limits as the synchronous routes (a job must not be a way
// around them) and wraps the pixel facade's resumable jobs.
func (s *Server) buildJobTask(kind string, spec json.RawMessage) (jobs.Task, error) {
	switch kind {
	case api.JobKindRobustness:
		var req api.RobustnessRequest
		if err := httpx.StrictUnmarshal(spec, &req); err != nil {
			return nil, err
		}
		rspec, err := httpx.RobustnessSpec(req, s.maxTrials)
		if err != nil {
			return nil, err
		}
		job, err := pixel.NewRobustnessJob(rspec)
		if err != nil {
			return nil, err
		}
		return &robustnessTask{job: job, points: slots.New[api.JobPoint](len(rspec.Sigmas))}, nil

	case api.JobKindSweep:
		var req api.SweepRequest
		if err := httpx.StrictUnmarshal(spec, &req); err != nil {
			return nil, err
		}
		designs, _, err := httpx.SweepDesigns(req)
		if err != nil {
			return nil, err
		}
		points := pixel.Grid(designs, req.Lanes, req.Bits)
		var job *pixel.SweepJob
		if eng, ok := s.engine.(*pixel.Engine); ok {
			job, err = eng.NewSweepJob(req.Networks, points)
		} else {
			job, err = pixel.NewSweepJob(req.Networks, points)
		}
		if err != nil {
			return nil, err
		}
		return &sweepTask{job: job, points: len(points), cells: httpx.NewSweepCells(req.Networks, len(points))}, nil

	default:
		return nil, httpx.BadRequestf("unknown job kind %q (have %q, %q)", kind, api.JobKindRobustness, api.JobKindSweep)
	}
}

// robustnessTask adapts a pixel.RobustnessJob to jobs.Task: progress
// events at a bounded stride, one "point" event per completed σ point,
// completed points as the poll-time partial result.
type robustnessTask struct {
	job    *pixel.RobustnessJob
	points *slots.Store[api.JobPoint] // one slot per σ index
}

func (t *robustnessTask) Snapshot() ([]byte, error) { return t.job.Snapshot() }
func (t *robustnessTask) Restore(b []byte) error    { return t.job.Restore(b) }
func (t *robustnessTask) Progress() (int, int)      { return t.job.Progress() }

// Partial returns the σ points completed so far, in axis order.
func (t *robustnessTask) Partial() any {
	_, pts := t.points.Export()
	return pts
}

func (t *robustnessTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	_, total := t.job.Progress()
	stride := jobs.ProgressStride(total)
	rep, err := t.job.Run(ctx, pixel.RobustnessHooks{
		OnTrial: func(done, total int) {
			if done%stride == 0 || done == total {
				emit(api.JobEventProgress, api.JobProgress{Done: done, Total: total})
			}
		},
		OnPoint: func(i int, p pixel.YieldPoint, prot *pixel.ProtectedPoint) {
			jp := api.JobPoint{Index: i, Point: p, Protected: prot}
			t.points.Land(i, jp)
			emit(api.JobEventPoint, jp)
		},
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// sweepTask adapts a pixel.SweepJob to jobs.Task: progress events at a
// bounded stride, priced grid cells as the poll-time partial result.
// Cells deliberately have no SSE event — a sweep can have tens of
// thousands, which would swamp the replayable event log.
type sweepTask struct {
	job    *pixel.SweepJob
	points int
	cells  *httpx.SweepCells
}

func (t *sweepTask) Snapshot() ([]byte, error) { return t.job.Snapshot() }
func (t *sweepTask) Restore(b []byte) error    { return t.job.Restore(b) }
func (t *sweepTask) Progress() (int, int)      { return t.job.Progress() }

// Partial returns the grid cells priced so far (see httpx.SweepCells).
func (t *sweepTask) Partial() any { return t.cells.Partial() }

func (t *sweepTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	_, total := t.job.Progress()
	stride := jobs.ProgressStride(total)
	byNet, err := t.job.Run(ctx, &pixel.SweepOptions{
		Progress: func(done, total int) {
			if done%stride == 0 || done == total {
				emit(api.JobEventProgress, api.JobProgress{Done: done, Total: total})
			}
		},
		Cell: func(network string, index int, r pixel.Result) {
			t.cells.Land(network, index, r.SweepRow())
		},
	})
	if err != nil {
		return nil, err
	}
	return sweepResponse(t.points, byNet), nil
}
