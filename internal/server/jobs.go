package server

import (
	"context"

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

// newRobustnessTask builds a robustness job's task; with newSweepTask
// it is the built-in factory (httpx.JobFactory), wrapping the pixel
// facade's resumable jobs.
func (s *Server) newRobustnessTask(req api.RobustnessRequest) (*robustnessTask, error) {
	spec, err := httpx.RobustnessSpec(req, s.maxTrials)
	if err != nil {
		return nil, err
	}
	job, err := pixel.NewRobustnessJob(spec)
	if err != nil {
		return nil, err
	}
	return &robustnessTask{job: job, points: slots.New[api.JobPoint](len(spec.Sigmas))}, nil
}

// sweepJobEngine is the engine method a sweep job runs on: a
// *pixel.Engine has it, and so has any Evaluator embedding one, so the
// job shares the served engine's result LRU and cost counters.
type sweepJobEngine interface {
	NewSweepJob(networks []string, points []pixel.Point) (*pixel.SweepJob, error)
}

func (s *Server) newSweepTask(req api.SweepRequest) (*sweepTask, error) {
	designs, _, err := httpx.SweepDesigns(req)
	if err != nil {
		return nil, err
	}
	points := pixel.Grid(designs, req.Lanes, req.Bits)
	newJob := pixel.NewSweepJob
	if eng, ok := s.engine.(sweepJobEngine); ok {
		newJob = eng.NewSweepJob
	}
	job, err := newJob(req.Networks, points)
	if err != nil {
		return nil, err
	}
	return &sweepTask{job: job, points: len(points), cells: httpx.NewSweepCells(req.Networks, len(points))}, nil
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
			t.cells.Land(network, index, r)
		},
	})
	if err != nil {
		return nil, err
	}
	return api.SweepResponse{Points: t.points, Results: byNet}, nil
}
