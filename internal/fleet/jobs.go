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
	"pixel/internal/slots"
)

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

// decodeCkpt decodes a coordinator checkpoint, refusing one of another
// kind or size with slots.ErrSnapshotMismatch.
func decodeCkpt(buf []byte, kind string, total int) (fleetJobCkpt, error) {
	var ck fleetJobCkpt
	if err := json.Unmarshal(buf, &ck); err != nil {
		return ck, err
	}
	if ck.Kind != kind || ck.Total != total {
		return ck, fmt.Errorf("%w: fleet checkpoint is %q/%d, want %q/%d", slots.ErrSnapshotMismatch, ck.Kind, ck.Total, kind, total)
	}
	return ck, nil
}

// fleetRobustnessTask runs a robustness request across the fleet: the
// σ axis splits into shards and every point folds into its global slot
// as it lands. A synchronous /v1/robustness runs one round of plain
// shard calls (see Robustness). A job dispatches the shards as worker
// jobs and folds every per-point SSE event and polled partial, so a
// dead worker costs only its unfinished σ points — the salvage loop
// re-plans exactly those onto the survivors. Trial seeds exclude σ
// (see internal/montecarlo), so an arbitrary σ subset re-run is
// bit-exact.
type fleetRobustnessTask struct {
	c      *Coordinator
	req    api.RobustnessRequest
	points *slots.Store[api.JobPoint] // one slot per global σ index

	mu        sync.Mutex
	base      *api.RobustnessResponse
	overheads []pixel.ProtectionReport // Points-stripped donors, one per complete shard
}

// newRobustnessTask validates req exactly as a worker's /v1/robustness
// and robustness job factory do — the request limits first, then the
// engine's own spec checks — so the coordinator refuses a bad spec with
// the worker's status and bytes, without touching a worker and without
// allocating the run's trials × σ slot store.
func (c *Coordinator) newRobustnessTask(req api.RobustnessRequest) (*fleetRobustnessTask, error) {
	spec, err := httpx.RobustnessSpec(req, c.opts.MaxTrials)
	if err != nil {
		return nil, err
	}
	if err := pixel.ValidateRobustness(spec); err != nil {
		return nil, err
	}
	return &fleetRobustnessTask{c: c, req: req, points: slots.New[api.JobPoint](len(req.Sigmas))}, nil
}

// Snapshot reads the points before the base and donors: a complete
// shard records those before its points land, so every point in the
// checkpoint comes with what its shard donated.
func (t *fleetRobustnessTask) Snapshot() ([]byte, error) {
	_, total := t.Progress()
	ck := fleetJobCkpt{Kind: api.JobKindRobustness, Total: total, Points: t.Partial().([]api.JobPoint)}
	t.mu.Lock()
	ck.Base, ck.Overheads = t.base, t.overheads
	t.mu.Unlock()
	return json.Marshal(ck)
}

// Restore reinstalls a checkpoint's σ points, then its base and
// overhead donors; a refused checkpoint installs nothing.
func (t *fleetRobustnessTask) Restore(buf []byte) error {
	_, total := t.Progress()
	ck, err := decodeCkpt(buf, api.JobKindRobustness, total)
	if err != nil {
		return err
	}
	idx := make([]int, len(ck.Points))
	for k, jp := range ck.Points {
		idx[k] = jp.Index
	}
	if err := t.points.Import(len(t.req.Sigmas), idx, ck.Points); err != nil {
		return err
	}
	t.mu.Lock()
	t.base, t.overheads = ck.Base, ck.Overheads
	t.mu.Unlock()
	t.c.metrics.salvagedUnits.Add(int64(len(idx)))
	return nil
}

// Progress counts trials: every landed σ point carries all of its own.
func (t *fleetRobustnessTask) Progress() (int, int) {
	done, total := t.points.Progress()
	return done * t.req.Trials, total * t.req.Trials
}

// Partial returns the σ points completed so far, in axis order.
func (t *fleetRobustnessTask) Partial() any {
	_, pts := t.points.Export()
	return pts
}

// planMissing chunks the missing σ indices into at most target shards.
// The subsets preserve axis order but need not be contiguous — after a
// failure the holes are wherever the dead shard was.
func (t *fleetRobustnessTask) planMissing(missing []int, target int) []robustShard {
	var shards []robustShard
	for _, r := range chunkRanges(len(missing), target) {
		idx := missing[r[0]:r[1]]
		sub := t.req
		sub.Sigmas = make([]float64, len(idx))
		for j, gi := range idx {
			sub.Sigmas[j] = t.req.Sigmas[gi]
		}
		shards = append(shards, robustShard{Req: sub, Key: "robustness|" + httpx.RobustnessKey(sub), Idx: idx})
	}
	return shards
}

func (t *fleetRobustnessTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	done, _ := t.Progress() // > 0: resumed mid-flight from a checkpoint
	err := harvest(ctx, t.c, api.JobKindRobustness, done > 0,
		func() int { return len(t.points.Missing()) },
		func(target int) []robustShard { return t.planMissing(t.points.Missing(), target) },
		func(ctx context.Context, sh robustShard) error { return t.runShard(ctx, sh, emit) })
	if err != nil {
		return nil, err
	}
	return t.finalize(ctx)
}

// runShard dispatches one σ chunk as a worker job, folding every point
// it reports — a shard that dies still contributes what it streamed.
func (t *fleetRobustnessTask) runShard(ctx context.Context, sh robustShard, emit func(string, any)) error {
	harvested := 0
	res, err := t.c.runShardJob(ctx, sh.Key,
		api.JobRequest{Kind: api.JobKindRobustness, Robustness: &sh.Req},
		func(ev api.JobEvent) {
			var jp api.JobPoint
			if ev.Type == api.JobEventPoint && json.Unmarshal(ev.Data, &jp) == nil {
				harvested += t.fold(sh, []api.JobPoint{jp}, emit)
			}
		},
		func(st api.JobStatusResponse) {
			var pts []api.JobPoint
			if len(st.Partial) > 0 && json.Unmarshal(st.Partial, &pts) == nil {
				harvested += t.fold(sh, pts, emit)
			}
		})
	if errors.Is(err, errJobsUnsupported) {
		// Workers without a job API: the harvest granularity collapses
		// to whole shards; the salvage loop still re-plans anything
		// missing.
		return t.runSync(ctx, sh, emit)
	}
	if err != nil {
		t.c.noteSalvaged(api.JobKindRobustness, harvested, len(sh.Idx)-harvested)
		return err
	}
	var resp api.RobustnessResponse
	if err := json.Unmarshal(res, &resp); err != nil {
		return fmt.Errorf("fleet: decode robustness job result: %w", err)
	}
	return t.foldResponse(sh, resp, emit)
}

// runSync runs one σ chunk as a plain /v1/robustness call and folds
// the response: a synchronous round's shard, and a job's fallback on
// workers without a job API.
func (t *fleetRobustnessTask) runSync(ctx context.Context, sh robustShard, emit func(string, any)) error {
	resp, err := runShard(ctx, t.c, "/v1/robustness", sh.Key, func(ctx context.Context, cl *api.Client) (api.RobustnessResponse, error) {
		return cl.Robustness(ctx, sh.Req)
	})
	if err != nil {
		return err
	}
	return t.foldResponse(sh, resp, emit)
}

// fold lands shard-local points in their global σ slots, skipping any
// already landed, and returns how many were new.
func (t *fleetRobustnessTask) fold(sh robustShard, local []api.JobPoint, emit func(string, any)) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, lp := range local {
		if lp.Index < 0 || lp.Index >= len(sh.Idx) {
			continue
		}
		jp := api.JobPoint{Index: sh.Idx[lp.Index], Point: lp.Point, Protected: lp.Protected}
		if ok, _ := t.points.Land(jp.Index, jp); ok {
			n++
			emit(api.JobEventPoint, jp)
		}
	}
	if n > 0 {
		done, total := t.Progress()
		emit(api.JobEventProgress, api.JobProgress{Done: done, Total: total})
	}
	return n
}

// foldResponse merges one complete shard response: its σ-independent
// fields become (or cross-check) the base, its protection overheads
// join the donor pool, and its points land in their global slots.
func (t *fleetRobustnessTask) foldResponse(sh robustShard, resp api.RobustnessResponse, emit func(string, any)) error {
	b := sigmaFree(resp)
	t.mu.Lock()
	if t.base == nil {
		t.base = b
	} else if !slices.Equal(resp.Baseline, t.base.Baseline) {
		// Baseline is σ-independent, so every shard must agree — a
		// mismatch means the fleet mixes incompatible worker builds and
		// the merge refuses rather than guess.
		t.mu.Unlock()
		return errors.New("fleet: shard baseline disagrees with the fleet")
	}
	if b.Protection != nil {
		t.overheads = append(t.overheads, *b.Protection)
	}
	t.mu.Unlock()

	local := make([]api.JobPoint, len(resp.Points))
	for j := range resp.Points {
		local[j] = api.JobPoint{Index: j, Point: resp.Points[j]}
		if resp.Protection != nil && j < len(resp.Protection.Points) {
			local[j].Protected = &resp.Protection.Points[j]
		}
	}
	t.fold(sh, local, emit)
	return nil
}

// sigmaFree returns the σ-independent part of a shard response: the
// report with its point curves stripped, protection overheads kept.
func sigmaFree(resp api.RobustnessResponse) *api.RobustnessResponse {
	resp.Points = nil
	if resp.Protection != nil {
		p := *resp.Protection
		p.Points = nil
		resp.Protection = &p
	}
	return &resp
}

// finalize assembles the single-node response from the harvested
// points. The protection overheads are a pure function of the global
// max retry factor, so any complete shard whose own max reached it
// donates them byte-exactly, whichever landed first. In a synchronous
// round every shard completes, so the shard holding the argmax point
// always qualifies. A job can lack such a donor (the achieving point
// was salvaged off a dead worker's stream); then one synchronous
// single-σ probe at the argmax σ re-derives them — strictly less work
// than re-running the dead shard.
func (t *fleetRobustnessTask) finalize(ctx context.Context) (api.RobustnessResponse, error) {
	if miss := t.points.Missing(); len(miss) > 0 {
		return api.RobustnessResponse{}, fmt.Errorf("fleet: robustness point %d missing after merge", miss[0])
	}
	n := len(t.req.Sigmas)
	pts := make([]pixel.YieldPoint, n)
	prot := make([]*pixel.ProtectedPoint, n)
	for i, jp := range t.points.Values(0, n) {
		pts[i] = jp.Point
		prot[i] = jp.Protected
	}
	t.mu.Lock()
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
			return api.RobustnessResponse{}, err
		}
		base = sigmaFree(resp)
		if base.Protection != nil {
			overheads = append(overheads, *base.Protection)
		}
	}

	out := *base
	out.Points = pts
	if base.Protection != nil {
		pr := *base.Protection
		pr.Points = make([]pixel.ProtectedPoint, n)
		globalMax, argmax := 0.0, 0
		for i := 0; i < n; i++ {
			if prot[i] == nil {
				return api.RobustnessResponse{}, fmt.Errorf("fleet: protected point %d missing after merge", i)
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
				return api.RobustnessResponse{}, err
			}
			if resp.Protection == nil {
				return api.RobustnessResponse{}, errors.New("fleet: overhead probe returned no protection curve")
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

// fleetSweepTask runs a sweep request across the fleet: the grid splits
// into cross-product shards and every cell folds into its global slot
// as it lands. A synchronous /v1/sweep runs one round of plain shard
// calls (see Sweep). A job dispatches the shards as worker jobs and
// harvests each one's polled partial, so a dead worker costs only the
// cells it had not yet priced; the salvage loop groups the missing
// rows into lane-block × bit-subset sub-requests of one design — still
// pure cross products, so still valid /v1/sweep bodies.
type fleetSweepTask struct {
	c       *Coordinator
	req     api.SweepRequest
	points  int            // rows in the full design-major grid
	designs []pixel.Design // resolved design axis

	mu    sync.Mutex        // serializes fold, so progress events count up
	cells *httpx.SweepCells // request network entry × grid row, as on a worker
}

// newSweepTask validates req exactly as a worker's /v1/sweep and sweep
// job factory do — the request limits first, then the engine's own
// network and precision checks — so the coordinator refuses a bad grid
// with the worker's status and bytes, without touching a worker and
// without allocating a sweep job.
func (c *Coordinator) newSweepTask(req api.SweepRequest) (*fleetSweepTask, error) {
	designs, points, err := httpx.SweepDesigns(req)
	if err != nil {
		return nil, err
	}
	if err := pixel.ValidateSweep(req.Networks, pixel.Grid(designs, req.Lanes, req.Bits)); err != nil {
		return nil, err
	}
	return &fleetSweepTask{
		c:       c,
		req:     req,
		points:  points,
		designs: designs,
		cells:   httpx.NewSweepCells(req.Networks, points),
	}, nil
}

func (t *fleetSweepTask) Snapshot() ([]byte, error) {
	_, total := t.Progress()
	return json.Marshal(fleetJobCkpt{Kind: api.JobKindSweep, Total: total, Cells: t.cells.Partial()})
}

// Restore reinstalls a checkpoint's cells in every request entry of
// their network; a refused checkpoint installs nothing.
func (t *fleetSweepTask) Restore(buf []byte) error {
	_, total := t.Progress()
	ck, err := decodeCkpt(buf, api.JobKindSweep, total)
	if err != nil {
		return err
	}
	n, err := t.cells.Import(ck.Cells)
	if err != nil {
		return err
	}
	t.c.metrics.salvagedUnits.Add(int64(n))
	return nil
}

// Progress counts request entries × rows, as a worker's sweep job does:
// a network listed twice counts twice.
func (t *fleetSweepTask) Progress() (int, int) { return t.cells.Progress() }

// Partial returns the grid cells landed so far in the shape and order
// a worker's sweep job reports (see httpx.SweepCells).
func (t *fleetSweepTask) Partial() any { return t.cells.Partial() }

// plan shards the missing rows into at most target shards, fewer when
// their rows × networks would give a shard less than minShardUnits of
// work.
func (t *fleetSweepTask) plan(missing []int, target int) []sweepShard {
	units := len(missing) * len(t.req.Networks)
	return t.planMissing(missing, min(max(units/t.c.opts.shardFloor, 1), target))
}

// planMissing builds shards covering exactly the missing rows. A full
// grid uses planSweep's contiguous chunks, at most target of them. A
// salvage round groups the holes per (design, lane), then merges the
// lanes of one design whose holes fall on the same bits into one lane
// block: one design × a lane subset × a bit subset, each in axis order,
// is still a pure cross product, so still a valid worker request. A
// salvage plan has one shard per (design, distinct bit subset).
func (t *fleetSweepTask) planMissing(missing []int, target int) []sweepShard {
	L, B := len(t.req.Lanes), len(t.req.Bits)
	if len(missing) == t.points {
		if shards, _, err := planSweep(t.req, target); err == nil {
			return shards
		}
	}
	type dl struct{ di, li int }
	holes := make(map[dl][]int) // bit indices missing per (design, lane)
	var order []dl
	for _, row := range missing {
		g := dl{row / (L * B), (row / B) % L}
		if _, ok := holes[g]; !ok {
			order = append(order, g)
		}
		holes[g] = append(holes[g], row%B)
	}
	type block struct {
		di          int
		lanes, bits []int // indices on the request's axes
	}
	var blocks []*block
	byBits := make(map[string]*block)
	for _, g := range order {
		key := fmt.Sprint(g.di, holes[g])
		b := byBits[key]
		if b == nil {
			b = &block{di: g.di, bits: holes[g]}
			byBits[key] = b
			blocks = append(blocks, b)
		}
		b.lanes = append(b.lanes, g.li)
	}
	shards := make([]sweepShard, 0, len(blocks))
	for _, b := range blocks {
		lanes, bits := make([]int, len(b.lanes)), make([]int, len(b.bits))
		rows := make([]int, 0, len(lanes)*len(bits))
		for i, li := range b.lanes {
			lanes[i] = t.req.Lanes[li]
			for _, bi := range b.bits {
				rows = append(rows, (b.di*L+li)*B+bi)
			}
		}
		for i, bi := range b.bits {
			bits[i] = t.req.Bits[bi]
		}
		shards = append(shards, newSweepShard(t.req, t.designs[b.di:b.di+1], lanes, bits, rows))
	}
	return shards
}

func (t *fleetSweepTask) Run(ctx context.Context, emit func(string, any)) (any, error) {
	done, _ := t.Progress() // > 0: resumed mid-flight from a checkpoint
	err := harvest(ctx, t.c, api.JobKindSweep, done > 0,
		func() int { _, cells := t.cells.MissingRows(); return cells },
		func(target int) []sweepShard { rows, _ := t.cells.MissingRows(); return t.plan(rows, target) },
		func(ctx context.Context, sh sweepShard) error { return t.runShard(ctx, sh, emit) })
	if err != nil {
		return nil, err
	}
	return t.finalize()
}

// runShard dispatches one grid chunk as a worker job, harvesting its
// polled partial cells — there is deliberately no per-cell SSE on
// sweep jobs (see api.JobCell), so polling is the harvest channel.
func (t *fleetSweepTask) runShard(ctx context.Context, sh sweepShard, emit func(string, any)) error {
	harvested := 0
	res, err := t.c.runShardJob(ctx, sh.Key,
		api.JobRequest{Kind: api.JobKindSweep, Sweep: &sh.Req},
		nil, // sweep worker jobs emit no per-cell events; the poll harvests
		func(st api.JobStatusResponse) {
			var cells []api.JobCell
			if len(st.Partial) > 0 && json.Unmarshal(st.Partial, &cells) == nil {
				harvested += t.fold(sh, cells, emit)
			}
		})
	if errors.Is(err, errJobsUnsupported) {
		return t.runSync(ctx, sh, emit)
	}
	if err != nil {
		t.c.noteSalvaged(api.JobKindSweep, harvested, len(sh.Rows)*len(t.req.Networks)-harvested)
		return err
	}
	var resp api.SweepResponse
	if err := json.Unmarshal(res, &resp); err != nil {
		return fmt.Errorf("fleet: decode sweep job result: %w", err)
	}
	return t.foldResponse(sh, resp, emit)
}

// runSync runs one grid chunk as a plain /v1/sweep call and folds the
// response: a synchronous round's shard, and a job's fallback on
// workers without a job API.
func (t *fleetSweepTask) runSync(ctx context.Context, sh sweepShard, emit func(string, any)) error {
	resp, err := runShard(ctx, t.c, "/v1/sweep", sh.Key, func(ctx context.Context, cl *api.Client) (api.SweepResponse, error) {
		return cl.Sweep(ctx, sh.Req)
	})
	if err != nil {
		return err
	}
	return t.foldResponse(sh, resp, emit)
}

// fold lands shard-local cells in their global grid slots, skipping
// any already landed, and returns how many were new.
func (t *fleetSweepTask) fold(sh sweepShard, local []api.JobCell, emit func(string, any)) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, cell := range local {
		if cell.Index >= 0 && cell.Index < len(sh.Rows) {
			n += t.cells.Land(cell.Network, sh.Rows[cell.Index], cell.Result)
		}
	}
	t.progressed(n, emit)
	return n
}

// foldResponse checks a complete shard response's shape and lands its
// rows cell by cell, as fold lands them.
func (t *fleetSweepTask) foldResponse(sh sweepShard, resp api.SweepResponse, emit func(string, any)) error {
	if resp.Points != len(sh.Rows) {
		return fmt.Errorf("fleet: sweep shard returned %d points, want %d", resp.Points, len(sh.Rows))
	}
	for _, n := range t.req.Networks {
		if rows := resp.Results[n]; len(rows) != len(sh.Rows) {
			return fmt.Errorf("fleet: sweep shard returned %d rows for %q, want %d", len(rows), n, len(sh.Rows))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	landed := 0
	for _, n := range t.req.Networks {
		for j, r := range resp.Results[n] {
			landed += t.cells.Land(n, sh.Rows[j], r)
		}
	}
	t.progressed(landed, emit)
	return nil
}

// progressed emits a progress event after a fold that landed n cells;
// the caller holds t.mu, so events count up.
func (t *fleetSweepTask) progressed(n int, emit func(string, any)) {
	if n > 0 {
		done, total := t.Progress()
		emit(api.JobEventProgress, api.JobProgress{Done: done, Total: total})
	}
}

// finalize assembles the single-node SweepResponse from the harvested
// cells. Worker results decode into the same float64s a local run
// would produce and Go re-encodes float64 round-trips byte-exactly, so
// the payload is byte-identical to one worker pricing the whole grid.
func (t *fleetSweepTask) finalize() (api.SweepResponse, error) {
	if rows, _ := t.cells.MissingRows(); len(rows) > 0 {
		return api.SweepResponse{}, fmt.Errorf("fleet: sweep row %d missing after merge", rows[0])
	}
	out := api.SweepResponse{Points: t.points, Results: make(map[string][]api.Result, len(t.req.Networks))}
	for _, n := range t.req.Networks {
		out.Results[n] = t.cells.Values(n)
	}
	return out, nil
}
