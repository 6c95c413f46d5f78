package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"pixel"
	"pixel/api"
	"pixel/internal/httpx"
	"pixel/internal/jobs"
)

// buildJobTask is the coordinator's jobs.Factory. Validation runs
// eagerly through the same planners the synchronous routes use — a bad
// spec is rejected at POST /v1/jobs, before any worker sees it. The
// returned tasks dispatch shards as worker jobs, harvest their partial
// streams as the work lands, and re-plan only the still-missing units
// when a shard dies (partial-result salvage); with JobsDir set their
// harvest state checkpoints, so a restarted coordinator re-dispatches
// only unfinished work.
func (c *Coordinator) buildJobTask(kind string, spec json.RawMessage) (jobs.Task, error) {
	switch kind {
	case api.JobKindRobustness:
		var req api.RobustnessRequest
		if err := httpx.StrictUnmarshal(spec, &req); err != nil {
			return nil, err
		}
		if _, err := planRobustness(req, c.opts.MaxTrials, 1); err != nil {
			return nil, err
		}
		return &fleetRobustnessTask{
			c:      c,
			req:    req,
			total:  len(req.Sigmas) * req.Trials,
			points: map[int]api.JobPoint{},
		}, nil

	case api.JobKindSweep:
		var req api.SweepRequest
		if err := httpx.StrictUnmarshal(spec, &req); err != nil {
			return nil, err
		}
		unit, points, err := planSweep(req, 1)
		if err != nil {
			return nil, err
		}
		return &fleetSweepTask{
			c:       c,
			req:     req,
			total:   len(req.Networks) * points,
			points:  points,
			designs: unit[0].Req.Designs,
			cells:   map[httpx.CellKey]api.JobCell{},
		}, nil

	default:
		return nil, httpx.BadRequestf("unknown job kind %q (have %q, %q)", kind, api.JobKindRobustness, api.JobKindSweep)
	}
}

// fleetJobCkpt is the durable snapshot of a coordinator job: the
// harvest so far in global indices, plus (for robustness) the
// σ-independent response fields and the overhead donors already seen.
// It is everything a restarted coordinator needs to re-dispatch only
// the missing units and still merge a byte-identical final payload.
type fleetJobCkpt struct {
	Kind      string                   `json:"kind"`
	Total     int                      `json:"total"`
	Base      *api.RobustnessResponse  `json:"base,omitempty"`
	Overheads []pixel.ProtectionReport `json:"overheads,omitempty"`
	Points    []api.JobPoint           `json:"points,omitempty"`
	Cells     []api.JobCell            `json:"cells,omitempty"`
}

// fleetRobustnessTask runs a robustness job across the fleet: the σ
// axis splits into worker jobs, every per-point SSE event and polled
// partial is folded in as it lands, and a dead worker costs only its
// unfinished σ points — the salvage loop re-plans exactly those onto
// the survivors. Trial seeds exclude σ (see internal/montecarlo), so
// an arbitrary σ subset re-run is bit-exact.
type fleetRobustnessTask struct {
	c     *Coordinator
	req   api.RobustnessRequest
	total int

	mu        sync.Mutex
	done      int
	points    map[int]api.JobPoint // global σ index → landed point
	base      *api.RobustnessResponse
	overheads []pixel.ProtectionReport // Points-stripped donors, one per complete shard
}

func (t *fleetRobustnessTask) Snapshot() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ck := fleetJobCkpt{
		Kind:      api.JobKindRobustness,
		Total:     t.total,
		Base:      t.base,
		Overheads: t.overheads,
		Points:    httpx.SortedPoints(t.points),
	}
	return json.Marshal(ck)
}

func (t *fleetRobustnessTask) Restore(buf []byte) error {
	var ck fleetJobCkpt
	if err := json.Unmarshal(buf, &ck); err != nil {
		return err
	}
	if ck.Kind != api.JobKindRobustness || ck.Total != t.total {
		return fmt.Errorf("fleet: checkpoint is %q/%d, want %q/%d", ck.Kind, ck.Total, api.JobKindRobustness, t.total)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	restored := 0
	for _, jp := range ck.Points {
		if jp.Index < 0 || jp.Index >= len(t.req.Sigmas) {
			continue
		}
		if _, ok := t.points[jp.Index]; ok {
			continue
		}
		t.points[jp.Index] = jp
		t.done += t.req.Trials
		restored++
	}
	t.base = ck.Base
	t.overheads = ck.Overheads
	if restored > 0 {
		t.c.metrics.salvagedUnits.Add(int64(restored))
	}
	return nil
}

func (t *fleetRobustnessTask) Progress() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done, t.total
}

// Partial returns the σ points completed so far, in axis order.
func (t *fleetRobustnessTask) Partial() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return httpx.SortedPoints(t.points)
}

// missing returns the global σ indices not yet landed, in axis order.
func (t *fleetRobustnessTask) missing() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i := range t.req.Sigmas {
		if _, ok := t.points[i]; !ok {
			out = append(out, i)
		}
	}
	return out
}

// robustJobShard is one dispatchable σ chunk: a valid sub-request plus
// the mapping from its local σ positions back to the global axis.
type robustJobShard struct {
	req api.RobustnessRequest
	key string
	idx []int // local σ position → global σ index
}

// planMissing chunks the missing σ indices into shards for the current
// fleet. The subsets preserve axis order but need not be contiguous —
// after a failure the holes are wherever the dead shard was.
func (t *fleetRobustnessTask) planMissing(missing []int) []robustJobShard {
	target := t.c.shardTarget()
	if target > len(missing) {
		target = len(missing)
	}
	shards := make([]robustJobShard, 0, target)
	for _, r := range chunkRanges(len(missing), target) {
		idx := missing[r[0]:r[1]]
		sub := t.req
		sub.Sigmas = make([]float64, len(idx))
		for j, gi := range idx {
			sub.Sigmas[j] = t.req.Sigmas[gi]
		}
		shards = append(shards, robustJobShard{req: sub, key: robustKey(sub), idx: idx})
	}
	return shards
}

func (t *fleetRobustnessTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	if len(t.req.Sigmas) == 0 {
		// Degenerate axis: pass through whole so the worker's own
		// validation and response shape apply verbatim.
		return t.c.Robustness(ctx, t.req)
	}
	t.mu.Lock()
	salvage := len(t.points) > 0 // adopted mid-flight from a checkpoint
	t.mu.Unlock()

	var lastErr error
	for dry := 0; ; {
		missing := t.missing()
		if len(missing) == 0 {
			break
		}
		if salvage {
			t.c.metrics.salvageRounds.Add(1)
			t.c.metrics.replannedUnits.Add(int64(len(missing)))
			t.c.logger.Info("fleet: robustness salvage round",
				"missing_points", len(missing), "axis_points", len(t.req.Sigmas))
		}
		if err := t.c.waitHealthy(ctx); err != nil {
			return nil, err
		}
		shards := t.planMissing(missing)
		err := fanAll(ctx, len(shards), func(ctx context.Context, i int) error {
			return t.runShard(ctx, shards[i], emit)
		})
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			lastErr = err
		}
		if landed := len(missing) - len(t.missing()); landed == 0 {
			dry++
			if dry >= t.c.opts.MaxSalvageRounds {
				if lastErr == nil {
					lastErr = errors.New("fleet: robustness job made no progress")
				}
				return nil, lastErr
			}
			if serr := sleepCtx(ctx, jitter(t.c.backoff(dry, lastErr))); serr != nil {
				return nil, serr
			}
		} else {
			dry = 0
		}
		salvage = true
	}
	return t.finalize(ctx)
}

// runShard dispatches one σ chunk as a worker job, folding every point
// it reports — a shard that dies still contributes what it streamed.
func (t *fleetRobustnessTask) runShard(ctx context.Context, sh robustJobShard, emit func(string, any)) error {
	harvested := 0
	fold := func(local api.JobPoint) {
		if local.Index < 0 || local.Index >= len(sh.idx) {
			return
		}
		gi := sh.idx[local.Index]
		t.mu.Lock()
		defer t.mu.Unlock()
		if _, ok := t.points[gi]; ok {
			return
		}
		jp := api.JobPoint{Index: gi, Point: local.Point, Protected: local.Protected}
		t.points[gi] = jp
		t.done += t.req.Trials
		harvested++
		emit(api.JobEventPoint, jp)
		emit(api.JobEventProgress, api.JobProgress{Done: t.done, Total: t.total})
	}
	res, err := t.c.runShardJob(ctx, sh.key,
		api.JobRequest{Kind: api.JobKindRobustness, Robustness: &sh.req},
		func(ev api.JobEvent) {
			if ev.Type != api.JobEventPoint {
				return
			}
			var jp api.JobPoint
			if json.Unmarshal(ev.Data, &jp) == nil {
				fold(jp)
			}
		},
		func(st api.JobStatusResponse) {
			if len(st.Partial) == 0 {
				return
			}
			var pts []api.JobPoint
			if json.Unmarshal(st.Partial, &pts) == nil {
				for _, jp := range pts {
					fold(jp)
				}
			}
		})
	if errors.Is(err, errJobsUnsupported) {
		// Workers without a job API: run the shard synchronously. The
		// harvest granularity collapses to whole shards; the salvage
		// loop still re-plans anything missing.
		resp, serr := runShard(ctx, t.c, "/v1/robustness", sh.key, func(ctx context.Context, cl *api.Client) (api.RobustnessResponse, error) {
			return cl.Robustness(ctx, sh.req)
		})
		if serr != nil {
			return serr
		}
		return t.foldResponse(sh, resp, emit)
	}
	if err != nil {
		if harvested > 0 {
			t.c.metrics.salvagedUnits.Add(int64(harvested))
			t.c.logger.Info("fleet: salvaged partial robustness shard",
				"points_kept", harvested, "points_lost", len(sh.idx)-harvested)
		}
		return err
	}
	var resp api.RobustnessResponse
	if uerr := json.Unmarshal(res, &resp); uerr != nil {
		return fmt.Errorf("fleet: decode robustness job result: %w", uerr)
	}
	return t.foldResponse(sh, resp, emit)
}

// foldResponse merges one complete shard response: its points land in
// their global slots, its σ-independent fields become (or cross-check)
// the base, and its protection overheads join the donor pool.
func (t *fleetRobustnessTask) foldResponse(sh robustJobShard, resp api.RobustnessResponse, emit func(string, any)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.base == nil {
		b := resp
		b.Points = nil
		if resp.Protection != nil {
			p := *resp.Protection
			p.Points = nil
			b.Protection = &p
		}
		t.base = &b
	} else if !slices.Equal(resp.Baseline, t.base.Baseline) {
		// Baseline is σ-independent, so every shard must agree — a
		// mismatch means the fleet mixes incompatible worker builds and
		// the merge refuses rather than guess.
		return errors.New("fleet: shard baseline disagrees with the fleet")
	}
	if resp.Protection != nil {
		p := *resp.Protection
		p.Points = nil
		t.overheads = append(t.overheads, p)
	}
	for j := range resp.Points {
		if j >= len(sh.idx) {
			break
		}
		gi := sh.idx[j]
		if _, ok := t.points[gi]; ok {
			continue
		}
		jp := api.JobPoint{Index: gi, Point: resp.Points[j]}
		if resp.Protection != nil && j < len(resp.Protection.Points) {
			jp.Protected = &resp.Protection.Points[j]
		}
		t.points[gi] = jp
		t.done += t.req.Trials
		emit(api.JobEventPoint, jp)
	}
	emit(api.JobEventProgress, api.JobProgress{Done: t.done, Total: t.total})
	return nil
}

// finalize assembles the single-node response from the harvested
// points. The protection overheads are a pure function of the global
// max retry factor, so any donor shard whose max matches supplies them
// byte-exactly; when no shard does (the achieving point was salvaged
// off a dead worker's stream), one synchronous single-σ probe at the
// argmax σ re-derives them — strictly less work than re-running the
// dead shard.
func (t *fleetRobustnessTask) finalize(ctx context.Context) (any, error) {
	t.mu.Lock()
	n := len(t.req.Sigmas)
	pts := make([]pixel.YieldPoint, n)
	prot := make([]*pixel.ProtectedPoint, n)
	for i := 0; i < n; i++ {
		jp, ok := t.points[i]
		if !ok {
			t.mu.Unlock()
			return nil, fmt.Errorf("fleet: robustness point %d missing after merge", i)
		}
		pts[i] = jp.Point
		prot[i] = jp.Protected
	}
	base := t.base
	overheads := slices.Clone(t.overheads)
	t.mu.Unlock()

	if base == nil {
		// Every point was harvested from streams of shards that died
		// before completing (or restored from such a checkpoint): one
		// single-σ probe donates the σ-independent fields and baseline.
		probe := t.req
		probe.Sigmas = t.req.Sigmas[:1]
		resp, err := t.c.Robustness(ctx, probe)
		if err != nil {
			return nil, err
		}
		b := resp
		b.Points = nil
		if resp.Protection != nil {
			p := *resp.Protection
			p.Points = nil
			b.Protection = &p
			overheads = append(overheads, p)
		}
		base = &b
	}

	out := *base
	out.Points = pts
	if base.Protection != nil {
		pr := *base.Protection
		pr.Points = make([]pixel.ProtectedPoint, n)
		globalMax, argmax := 0.0, 0
		for i := 0; i < n; i++ {
			if prot[i] == nil {
				return nil, fmt.Errorf("fleet: protected point %d missing after merge", i)
			}
			pr.Points[i] = *prot[i]
			if prot[i].RetryFactor > globalMax {
				globalMax, argmax = prot[i].RetryFactor, i
			}
		}
		donor := (*pixel.ProtectionReport)(nil)
		for i := range overheads {
			if overheads[i].MaxRetryFactor == globalMax {
				donor = &overheads[i]
				break
			}
		}
		if donor == nil {
			probe := t.req
			probe.Sigmas = []float64{t.req.Sigmas[argmax]}
			resp, err := t.c.Robustness(ctx, probe)
			if err != nil {
				return nil, err
			}
			if resp.Protection == nil {
				return nil, errors.New("fleet: overhead probe returned no protection curve")
			}
			donor = resp.Protection
		}
		pr.MaxRetryFactor = donor.MaxRetryFactor
		pr.EnergyOverhead = donor.EnergyOverhead
		pr.LatencyOverhead = donor.LatencyOverhead
		pr.AreaOverhead = donor.AreaOverhead
		out.Protection = &pr
	}
	return out, nil
}

// fleetSweepTask runs a sweep job across the fleet. Grid cells are
// harvested from each worker job's polled partial, so a dead worker
// costs only the cells it had not yet priced; the salvage loop groups
// the missing rows per (design, lane) into bit-subset sub-requests —
// still pure cross products, so still valid /v1/sweep bodies.
type fleetSweepTask struct {
	c       *Coordinator
	req     api.SweepRequest
	total   int      // cells: networks × grid rows
	points  int      // rows in the full design-major grid
	designs []string // explicit design names, axis order

	mu    sync.Mutex
	done  int
	cells map[httpx.CellKey]api.JobCell
}

func (t *fleetSweepTask) Snapshot() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ck := fleetJobCkpt{
		Kind:  api.JobKindSweep,
		Total: t.total,
		Cells: httpx.SortedCells(t.cells),
	}
	return json.Marshal(ck)
}

func (t *fleetSweepTask) Restore(buf []byte) error {
	var ck fleetJobCkpt
	if err := json.Unmarshal(buf, &ck); err != nil {
		return err
	}
	if ck.Kind != api.JobKindSweep || ck.Total != t.total {
		return fmt.Errorf("fleet: checkpoint is %q/%d, want %q/%d", ck.Kind, ck.Total, api.JobKindSweep, t.total)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	restored := 0
	for _, cell := range ck.Cells {
		if cell.Index < 0 || cell.Index >= t.points {
			continue
		}
		k := httpx.CellKey{Network: cell.Network, Index: cell.Index}
		if _, ok := t.cells[k]; ok {
			continue
		}
		t.cells[k] = cell
		t.done++
		restored++
	}
	if restored > 0 {
		t.c.metrics.salvagedUnits.Add(int64(restored))
	}
	return nil
}

func (t *fleetSweepTask) Progress() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done, t.total
}

// Partial returns the grid cells landed so far, sorted by network then
// index — the same shape and order a worker's sweep job reports.
func (t *fleetSweepTask) Partial() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return httpx.SortedCells(t.cells)
}

// missingRows returns the global rows with at least one network's cell
// outstanding, plus the exact missing cell count for the metrics.
func (t *fleetSweepTask) missingRows() (rows []int, cells int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.points; i++ {
		miss := 0
		for _, n := range t.req.Networks {
			if _, ok := t.cells[httpx.CellKey{Network: n, Index: i}]; !ok {
				miss++
			}
		}
		if miss > 0 {
			rows = append(rows, i)
			cells += miss
		}
	}
	return rows, cells
}

// sweepJobShard is one dispatchable grid chunk: a valid cross-product
// sub-request plus the mapping from its local rows to the global grid.
type sweepJobShard struct {
	req  api.SweepRequest
	key  string
	rows []int // local row → global grid row
}

// planMissing builds shards covering exactly the missing rows. A full
// grid uses the synchronous planner's contiguous chunks; a salvage
// round groups holes per (design, lane) with a bit subset in axis
// order — any bit subset of one (design, lane) is still a pure cross
// product, so still a valid worker request.
func (t *fleetSweepTask) planMissing(missing []int) []sweepJobShard {
	L, B := len(t.req.Lanes), len(t.req.Bits)
	if len(missing) == t.points {
		unit, _, err := planSweep(t.req, t.c.shardTarget())
		if err == nil {
			shards := make([]sweepJobShard, 0, len(unit))
			for _, sh := range unit {
				rows := make([]int, sh.Count)
				for j := range rows {
					rows[j] = sh.Start + j
				}
				shards = append(shards, sweepJobShard{req: sh.Req, key: sh.Key, rows: rows})
			}
			return shards
		}
	}
	// Group per (design, lane), preserving axis order within each group.
	type dl struct{ di, li int }
	groups := make(map[dl][]int)
	var order []dl
	for _, row := range missing {
		g := dl{row / (L * B), (row / B) % L}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], row)
	}
	shards := make([]sweepJobShard, 0, len(order))
	for _, g := range order {
		rows := groups[g]
		bits := make([]int, len(rows))
		for j, row := range rows {
			bits[j] = t.req.Bits[row%B]
		}
		sub := api.SweepRequest{
			Networks: t.req.Networks,
			Designs:  []string{t.designs[g.di]},
			Lanes:    []int{t.req.Lanes[g.li]},
			Bits:     bits,
		}
		shards = append(shards, sweepJobShard{req: sub, key: sweepKey(sub), rows: rows})
	}
	return shards
}

func (t *fleetSweepTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	t.mu.Lock()
	salvage := len(t.cells) > 0 // adopted mid-flight from a checkpoint
	t.mu.Unlock()

	var lastErr error
	for dry := 0; ; {
		missing, missingCells := t.missingRows()
		if len(missing) == 0 {
			break
		}
		if salvage {
			t.c.metrics.salvageRounds.Add(1)
			t.c.metrics.replannedUnits.Add(int64(missingCells))
			t.c.logger.Info("fleet: sweep salvage round",
				"missing_cells", missingCells, "total_cells", t.total)
		}
		if err := t.c.waitHealthy(ctx); err != nil {
			return nil, err
		}
		shards := t.planMissing(missing)
		err := fanAll(ctx, len(shards), func(ctx context.Context, i int) error {
			return t.runShard(ctx, shards[i], emit)
		})
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			lastErr = err
		}
		_, stillMissing := t.missingRows()
		if stillMissing == missingCells {
			dry++
			if dry >= t.c.opts.MaxSalvageRounds {
				if lastErr == nil {
					lastErr = errors.New("fleet: sweep job made no progress")
				}
				return nil, lastErr
			}
			if serr := sleepCtx(ctx, jitter(t.c.backoff(dry, lastErr))); serr != nil {
				return nil, serr
			}
		} else {
			dry = 0
		}
		salvage = true
	}
	return t.finalize()
}

// runShard dispatches one grid chunk as a worker job, harvesting its
// polled partial cells — there is deliberately no per-cell SSE on
// sweep jobs (see api.JobCell), so polling is the harvest channel.
func (t *fleetSweepTask) runShard(ctx context.Context, sh sweepJobShard, emit func(string, any)) error {
	harvested := 0
	fold := func(batch []api.JobCell) {
		t.mu.Lock()
		defer t.mu.Unlock()
		folded := 0
		for _, cell := range batch {
			if cell.Index < 0 || cell.Index >= len(sh.rows) {
				continue
			}
			gi := sh.rows[cell.Index]
			k := httpx.CellKey{Network: cell.Network, Index: gi}
			if _, ok := t.cells[k]; ok {
				continue
			}
			t.cells[k] = api.JobCell{Network: cell.Network, Index: gi, Result: cell.Result}
			t.done++
			folded++
		}
		if folded > 0 {
			harvested += folded
			emit(api.JobEventProgress, api.JobProgress{Done: t.done, Total: t.total})
		}
	}
	res, err := t.c.runShardJob(ctx, sh.key,
		api.JobRequest{Kind: api.JobKindSweep, Sweep: &sh.req},
		nil, // sweep worker jobs emit no per-cell events; the poll harvests
		func(st api.JobStatusResponse) {
			if len(st.Partial) == 0 {
				return
			}
			var cells []api.JobCell
			if json.Unmarshal(st.Partial, &cells) == nil {
				fold(cells)
			}
		})
	if errors.Is(err, errJobsUnsupported) {
		resp, serr := runShard(ctx, t.c, "/v1/sweep", sh.key, func(ctx context.Context, cl *api.Client) (api.SweepResponse, error) {
			return cl.Sweep(ctx, sh.req)
		})
		if serr != nil {
			return serr
		}
		return t.foldResponse(sh, resp, fold)
	}
	if err != nil {
		if harvested > 0 {
			t.c.metrics.salvagedUnits.Add(int64(harvested))
			t.c.logger.Info("fleet: salvaged partial sweep shard",
				"cells_kept", harvested, "cells_lost", len(sh.rows)*len(t.req.Networks)-harvested)
		}
		return err
	}
	var resp api.SweepResponse
	if uerr := json.Unmarshal(res, &resp); uerr != nil {
		return fmt.Errorf("fleet: decode sweep job result: %w", uerr)
	}
	return t.foldResponse(sh, resp, fold)
}

// foldResponse lands a complete shard response's rows cell by cell.
func (t *fleetSweepTask) foldResponse(sh sweepJobShard, resp api.SweepResponse, fold func([]api.JobCell)) error {
	if resp.Points != len(sh.rows) {
		return fmt.Errorf("fleet: sweep shard returned %d points, want %d", resp.Points, len(sh.rows))
	}
	for _, n := range t.req.Networks {
		rows := resp.Results[n]
		if len(rows) != len(sh.rows) {
			return fmt.Errorf("fleet: sweep shard returned %d rows for %q, want %d", len(rows), n, len(sh.rows))
		}
		batch := make([]api.JobCell, len(rows))
		for j := range rows {
			batch[j] = api.JobCell{Network: n, Index: j, Result: rows[j]}
		}
		fold(batch)
	}
	return nil
}

// finalize assembles the single-node SweepResponse from the harvested
// cells. Worker results decode into the same float64s a local run
// would produce and Go re-encodes float64 round-trips byte-exactly, so
// the payload is byte-identical to one worker pricing the whole grid.
func (t *fleetSweepTask) finalize() (any, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := api.SweepResponse{Points: t.points, Results: make(map[string][]api.Result, len(t.req.Networks))}
	for _, n := range t.req.Networks {
		rows := make([]api.Result, t.points)
		for i := 0; i < t.points; i++ {
			cell, ok := t.cells[httpx.CellKey{Network: n, Index: i}]
			if !ok {
				return nil, fmt.Errorf("fleet: sweep cell %s/%d missing after merge", n, i)
			}
			rows[i] = cell.Result
		}
		out.Results[n] = rows
	}
	return out, nil
}
