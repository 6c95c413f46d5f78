package qnn

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pixel/internal/bitserial"
	"pixel/internal/parallel"
	"pixel/internal/tensor"
)

// batchRun is the shared state of one RunBatch pass: the current
// per-image activations, which of them the pipeline owns (stage
// outputs, safe to mutate in place and recycle) versus borrowed caller
// inputs (never touched), and the arena stage outputs come from.
// Stages acquire and recycle tensors only on the serial coordination
// path — worker goroutines just fill tensors handed to them — so the
// arena needs no locking.
type batchRun struct {
	xs    []*tensor.Tensor
	owned []bool
	arena *tensor.Arena
}

// replace installs y as image b's activation, recycling the tensor it
// replaces when the pipeline owns it. Installing the same tensor
// (in-place stages) keeps its ownership unchanged.
func (r *batchRun) replace(b int, y *tensor.Tensor) {
	if r.xs[b] == y {
		return
	}
	if r.owned[b] {
		r.arena.Put(r.xs[b])
	}
	r.xs[b] = y
	r.owned[b] = true
}

// batchStage is one step of a stage plan: a layer plus any
// Requant/MaxPool epilogue fused into it. Fusion never changes results
// — the epilogue applies the exact per-layer arithmetic to each raw MAC
// value as it is stored, so the intermediate tensors the unfused plan
// materializes are simply never built (requant then pool, in chain
// order; max pooling commutes with the element order either way).
type batchStage struct {
	layer Layer
	rq    *Requant
	pool  *MaxPool
}

// batchPlan turns the layer list into stages. Unfused, every layer is
// a stage of its own. Fused, Conv→Requant→MaxPool (either epilogue
// optional) and FullyConnected→Requant chains collapse into single
// stages.
func (m *Model) batchPlan(fuse bool) []batchStage {
	plan := make([]batchStage, 0, len(m.Layers))
	for i := 0; i < len(m.Layers); i++ {
		st := batchStage{layer: m.Layers[i]}
		if !fuse {
			plan = append(plan, st)
			continue
		}
		switch m.Layers[i].(type) {
		case *Conv:
			if i+1 < len(m.Layers) {
				if rq, ok := m.Layers[i+1].(*Requant); ok {
					st.rq = rq
					i++
				}
			}
			if i+1 < len(m.Layers) {
				if p, ok := m.Layers[i+1].(*MaxPool); ok {
					st.pool = p
					i++
				}
			}
		case *FullyConnected:
			if i+1 < len(m.Layers) {
				if rq, ok := m.Layers[i+1].(*Requant); ok {
					st.rq = rq
					i++
				}
			}
		}
		plan = append(plan, st)
	}
	return plan
}

// run executes one stage, returning the label of the layer to blame
// for any error (fused stages can fail in their epilogue layers).
func (st *batchStage) run(ctx context.Context, run *batchRun, d Dotter, workers int) (string, error) {
	switch l := st.layer.(type) {
	case *Conv:
		return l.applyBatchFused(ctx, run, d, workers, st.rq, st.pool)
	case *FullyConnected:
		return l.applyBatchFused(ctx, run, d, workers, st.rq)
	}
	return st.layer.Name(), st.layer.stage(ctx, run, d, workers)
}

// RunBatch executes the model on a batch of same-shape inputs,
// bit-identical to len(ins) sequential RunContext calls at any worker
// count. It runs the fused stage plan: Conv and FullyConnected layers
// pack their weights once per process (cached on the layer; see
// Conv.packedFilters) and absorb trailing Requant / MaxPool layers into
// their store epilogue, so the chain's intermediate activation tensors
// are never materialized. Fusion moves no MAC, so with one worker and a
// plain Dotter a batch of one issues exactly RunContext's DotProduct
// call sequence (see dotMulti), which is what lets a stateful engine
// run on it. Inter-layer activations come from a tensor.Arena
// (opts.Arena, or a private one) and are recycled as soon as the next
// stage has consumed them; per-image scratch (im2col patch matrices,
// operand buffers) comes from a shared pool — so a steady-state batch
// allocates near-zero on the MAC hot path. The caller's input tensors
// are never mutated or recycled.
func (m *Model) RunBatch(ctx context.Context, ins []*tensor.Tensor, d Dotter, opts RunOptions) ([]*tensor.Tensor, error) {
	return m.runPlan(ctx, m.batchPlan(true), ins, d, opts)
}

// runPlan is the one executor: it validates the batch and runs the
// plan's stages in order, checking ctx between them.
func (m *Model) runPlan(ctx context.Context, plan []batchStage, ins []*tensor.Tensor, d Dotter, opts RunOptions) ([]*tensor.Tensor, error) {
	if m.ActivationBits < 1 || m.ActivationBits > 16 {
		return nil, fmt.Errorf("qnn: activation bits %d out of range [1,16]", m.ActivationBits)
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("qnn: empty batch")
	}
	for b, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("qnn: batch input %d is nil", b)
		}
		if in.H != ins[0].H || in.W != ins[0].W || in.C != ins[0].C {
			return nil, fmt.Errorf("qnn: batch input %d shape %dx%dx%d != %dx%dx%d",
				b, in.H, in.W, in.C, ins[0].H, ins[0].W, ins[0].C)
		}
	}
	arena := opts.Arena
	if arena == nil {
		arena = tensor.NewArena()
	}
	run := &batchRun{
		xs:    make([]*tensor.Tensor, len(ins)),
		owned: make([]bool, len(ins)),
		arena: arena,
	}
	copy(run.xs, ins)
	for _, st := range plan {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name, err := st.run(ctx, run, d, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("qnn: %s: layer %s: %w", m.Label, name, err)
		}
	}
	return run.xs, nil
}

// runScratch is the pooled per-image (conv) / per-call (fc) working
// set: a conv's lane source, a dense layer's inputs prepared as
// filters, the im2col patch matrix, the activation operands as engine
// words, window headers into them, and the engine's output rows.
type runScratch struct {
	lanes   convLanes
	inputs  bitserial.Filters
	pm      tensor.PatchMatrix
	u64     []uint64
	windows [][]uint64
	out     []uint64
	outHdrs [][]uint64
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// growRows carves flat (cap-grown to rows*cols) into per-row headers
// in hdrs, returning the header slice; both backing stores live in the
// pooled scratch, so steady-state calls reuse them.
func growRows(flat *[]uint64, hdrs *[][]uint64, rows, cols int) [][]uint64 {
	if cap(*flat) < rows*cols {
		*flat = make([]uint64, rows*cols)
	}
	*flat = (*flat)[:rows*cols]
	if cap(*hdrs) < rows {
		*hdrs = make([][]uint64, rows)
	}
	*hdrs = (*hdrs)[:rows]
	for i := range *hdrs {
		(*hdrs)[i] = (*flat)[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return *hdrs
}

// errNoDotter is a MAC layer's error when it is run without a Dotter
// it can use: handed nil, or, for a SignedConv, one with no
// SignedDotProduct.
var errNoDotter = errors.New("qnn: MAC layer has no Dotter")

// dotMulti evaluates every filter against every window into
// outs[f][w], through the engine's multi-filter entry point when it has
// one. Otherwise it issues one DotProduct per (window, filter) pair in
// callOrder: windows in rows of rowLen, every filter swept across a
// row before the next row starts. Conv passes its output-row width in
// both plans, so a stateful engine (a fault injector consuming its flip
// stream call by call) sees one call sequence from the fused and the
// unfused plan.
func dotMulti(d Dotter, windows, filters, outs [][]uint64, rowLen int) error {
	if md, ok := d.(MultiDotter); ok {
		return md.DotProductsMulti(windows, filters, outs)
	}
	if len(outs) != len(filters) {
		return fmt.Errorf("qnn: %d output rows != %d filters", len(outs), len(filters))
	}
	for f := range outs {
		if len(outs[f]) != len(windows) {
			return fmt.Errorf("qnn: out length %d != %d windows", len(outs[f]), len(windows))
		}
	}
	return callOrder(len(windows), len(filters), rowLen, func(f, w int) error {
		v, err := d.DotProduct(windows[w], filters[f])
		if err != nil {
			return err
		}
		outs[f][w] = v
		return nil
	})
}

// packFilters converts a layer's weight matrix to engine operands,
// validating non-negativity — the packing every image of every batch
// reuses (cached per layer by packedFilters / packedWeights).
func packFilters(weights []int64, rows, cols int, label string) ([][]uint64, error) {
	flat := make([]uint64, rows*cols)
	hdrs := make([][]uint64, rows)
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("qnn: negative weight %d in %s", w, label)
		}
		flat[i] = uint64(w)
	}
	for m := range hdrs {
		hdrs[m] = flat[m*cols : (m+1)*cols : (m+1)*cols]
	}
	return hdrs, nil
}

// packedFilters returns the engine-operand form of the kernel weights,
// packing them on first use and caching the result on the layer (the
// kernel must not be mutated after the layer first runs).
func (c *Conv) packedFilters() ([][]uint64, error) {
	c.packOnce.Do(func() {
		k := c.Kernel
		c.packed, c.packErr = packFilters(k.Data, k.M, k.R*k.R*k.C, c.Label)
	})
	return c.packed, c.packErr
}

// packedWeights is packedFilters for the dense weight matrix (the
// weights must not be mutated after the layer first runs).
func (f *FullyConnected) packedWeights() ([][]uint64, error) {
	f.packOnce.Do(func() {
		if f.Out < 1 || len(f.Weights)%f.Out != 0 {
			f.packErr = fmt.Errorf("qnn: weight matrix %d not divisible into %d outputs", len(f.Weights), f.Out)
			return
		}
		f.packed, f.packErr = packFilters(f.Weights, f.Out, len(f.Weights)/f.Out, f.Label)
		for _, row := range f.packed {
			for _, v := range row {
				f.wor |= v
			}
		}
	})
	return f.packed, f.packErr
}

// requantVal is Requant's per-element arithmetic, applied by its own
// stage and by a fused epilogue; identity when rq is nil.
func requantVal(v int64, rq *Requant) int64 {
	if rq == nil {
		return v
	}
	v >>= rq.Shift
	if v < 0 {
		v = 0
	}
	if v > rq.Max {
		v = rq.Max
	}
	return v
}

// fuseConvEpilogue scatters a conv's raw MAC rows (outRows[m][pos],
// pos = oy*ew+ox) into the output tensor, applying the fused requant
// and max-pool in the same pass — elementwise identical to running the
// Requant and MaxPool stages on a materialized conv output, but without
// ever building it. Requant is monotone non-decreasing (a shift and a
// clamp), so the largest requantized value of a pool window is the
// requantized largest raw value: each window is pooled raw and
// requantized once. Pooling folds each band of window rows into its
// first row in place, so outRows is scratch afterwards.
func fuseConvEpilogue(out *tensor.Tensor, outRows [][]uint64, ew int, rq *Requant, pool *MaxPool) {
	m := len(outRows)
	if pool == nil {
		for f, row := range outRows {
			for pos, v := range row {
				out.Data[pos*m+f] = requantVal(int64(v), rq)
			}
		}
		return
	}
	win := pool.Window
	for f, row := range outRows {
		for py := 0; py < out.H; py++ {
			band := row[py*win*ew : (py+1)*win*ew]
			top := band[:ew]
			for ky := 1; ky < win; ky++ {
				for x, v := range band[ky*ew : (ky+1)*ew] {
					top[x] = max(top[x], v)
				}
			}
			dst := out.Data[py*out.W*m+f:]
			for px := 0; px < out.W; px++ {
				best := top[px*win]
				for kx := 1; kx < win; kx++ {
					best = max(best, top[px*win+kx])
				}
				dst[px*m] = requantVal(int64(best), rq)
			}
		}
	}
}

// applyBatchFused runs the conv over the whole batch with an optional
// fused Requant/MaxPool epilogue: filters are packed once per process,
// each input's im2col lowering and filter sweep is one work item on
// the pool running on pooled scratch, and the epilogue requantizes and
// pools directly out of the engine's MAC rows into an arena tensor —
// bit-identical to the unfused plan. On a LaneDotter an input whose
// activations all fit the engine's operands skips the lowering: its
// windows go from the image straight into the engine's column store
// (convLanes). Any other input, and any other Dotter, takes the
// lowering, whose errors are the stage's. Returns the label of the
// layer responsible for any error.
func (c *Conv) applyBatchFused(ctx context.Context, run *batchRun, d Dotter, workers int, rq *Requant, pool *MaxPool) (string, error) {
	if d == nil {
		return c.Label, errNoDotter
	}
	k := c.Kernel
	ins := run.xs
	in0 := ins[0]
	if in0.C != k.C {
		return c.Label, fmt.Errorf("qnn: input channels %d != kernel channels %d", in0.C, k.C)
	}
	if c.Stride < 1 {
		return c.Label, fmt.Errorf("qnn: stride %d", c.Stride)
	}
	if c.Pad < 0 {
		return c.Label, fmt.Errorf("qnn: pad %d", c.Pad)
	}
	eh := (in0.H+2*c.Pad-k.R)/c.Stride + 1
	ew := (in0.W+2*c.Pad-k.R)/c.Stride + 1
	if eh < 1 || ew < 1 {
		return c.Label, fmt.Errorf("qnn: kernel %d too large for %dx%d input with pad %d", k.R, in0.H, in0.W, c.Pad)
	}
	filters, err := c.packedFilters()
	if err != nil {
		return c.Label, err
	}
	if rq != nil && rq.Max < 1 {
		return rq.Label, fmt.Errorf("qnn: requant max %d", rq.Max)
	}
	outH, outW := eh, ew
	if pool != nil {
		if pool.Window < 1 || eh%pool.Window != 0 || ew%pool.Window != 0 {
			return pool.Label, fmt.Errorf("tensor: pool window %d does not tile %dx%d", pool.Window, eh, ew)
		}
		outH /= pool.Window
		outW /= pool.Window
	}

	outs := make([]*tensor.Tensor, len(ins))
	for b := range outs {
		outs[b] = run.arena.Get(outH, outW, k.M)
	}
	ld, _ := d.(LaneDotter)
	fw, _ := d.(FlipWalker)
	var mask uint64
	var pf *bitserial.Filters
	var pfErr error
	if ld != nil {
		mask = uint64(1)<<uint(ld.Bits()) - 1
		pf, pfErr = prepared(&c.lane, ld, filters)
	}
	err = parallel.For(ctx, len(ins), workers, func(_ context.Context, b int) error {
		in := ins[b]
		sc := runScratchPool.Get().(*runScratch)
		defer runScratchPool.Put(sc)
		if ld != nil && k.R >= 1 && sc.lanes.load(in, k.R, c.Stride, c.Pad, ew, eh*ew, mask) {
			defer sc.lanes.release()
			if pfErr != nil {
				return fmt.Errorf("input %d: %w", b, pfErr)
			}
			outRows := growRows(&sc.out, &sc.outHdrs, k.M, eh*ew)
			if _, err := ld.LaneBatch(&sc.lanes, pf, outRows); err != nil {
				return fmt.Errorf("input %d: %w", b, err)
			}
			if fw != nil {
				sc.lanes.hold()
				if err := walk(fw, eh*ew, sc.lanes.window, filters, outRows, false, ew); err != nil {
					return fmt.Errorf("input %d: %w", b, err)
				}
			}
			fuseConvEpilogue(outs[b], outRows, ew, rq, pool)
			return nil
		}
		for i, v := range in.Data {
			if v < 0 {
				return fmt.Errorf("qnn: input %d: negative activation %d at (%d,%d,%d)",
					b, v, i/(in.W*in.C), (i/in.C)%in.W, i%in.C)
			}
		}
		if err := tensor.LowerInto(&sc.pm, in, k.R, c.Stride, c.Pad); err != nil {
			return fmt.Errorf("qnn: input %d: %w", b, err)
		}
		p := &sc.pm
		windows := growRows(&sc.u64, &sc.windows, p.Rows, p.Cols)
		for i, v := range p.Data {
			sc.u64[i] = uint64(v)
		}
		outRows := growRows(&sc.out, &sc.outHdrs, k.M, p.Rows)
		if err := dotMulti(d, windows, filters, outRows, p.EW); err != nil {
			return fmt.Errorf("input %d: %w", b, err)
		}
		fuseConvEpilogue(outs[b], outRows, p.EW, rq, pool)
		return nil
	})
	if err != nil {
		run.arena.Put(outs...)
		return c.Label, err
	}
	for b := range outs {
		run.replace(b, outs[b])
	}
	return c.Label, nil
}

// applyBatchFused runs the dense layer over the whole batch with an
// optional fused Requant epilogue: the weight matrix is packed once
// per process, all inputs become the window batch, and output-neuron
// chunks fan across the pool, each sweeping its filters against every
// input word-parallel; outputs are requantized directly out of the MAC
// rows into arena tensors. A LaneDotter runs it as laneFC when every
// operand fits its width; anything else, out-of-range operands
// included, takes dotMulti, whose errors are the stage's.
func (f *FullyConnected) applyBatchFused(ctx context.Context, run *batchRun, d Dotter, workers int, rq *Requant) (string, error) {
	if d == nil {
		return f.Label, errNoDotter
	}
	ins := run.xs
	n := ins[0].Len()
	if f.Out < 1 {
		return f.Label, fmt.Errorf("qnn: output size %d", f.Out)
	}
	if len(f.Weights) != n*f.Out {
		return f.Label, fmt.Errorf("qnn: weight matrix %d != %d x %d", len(f.Weights), f.Out, n)
	}
	filters, err := f.packedWeights()
	if err != nil {
		return f.Label, err
	}
	if rq != nil && rq.Max < 1 {
		return rq.Label, fmt.Errorf("qnn: requant max %d", rq.Max)
	}

	sc := runScratchPool.Get().(*runScratch)
	defer runScratchPool.Put(sc)
	windows := growRows(&sc.u64, &sc.windows, len(ins), n)
	var or uint64
	for b, in := range ins {
		dst := windows[b]
		for i, v := range in.Data {
			if v < 0 {
				return f.Label, fmt.Errorf("qnn: input %d: negative activation %d", b, v)
			}
			dst[i] = uint64(v)
			or |= dst[i]
		}
	}
	if ld, ok := d.(LaneDotter); ok && or <= uint64(1)<<uint(ld.Bits())-1 {
		if done, err := f.laneFC(ctx, run, ld, workers, rq, filters, windows, sc); done || err != nil {
			return f.Label, err
		}
	}
	outRows := growRows(&sc.out, &sc.outHdrs, f.Out, len(ins))

	// Chunk output neurons contiguously across the pool; the chunk
	// boundaries vary with the worker count but every (neuron, input)
	// product is the same call either way, so results are placement-
	// deterministic and bit-identical.
	chunks := parallel.Clamp(workers, f.Out)
	err = parallel.For(ctx, chunks, workers, func(_ context.Context, ci int) error {
		lo := ci * f.Out / chunks
		hi := (ci + 1) * f.Out / chunks
		return dotMulti(d, windows, filters[lo:hi], outRows[lo:hi], len(windows))
	})
	if err != nil {
		return f.Label, err
	}
	f.store(run, outRows, false, rq)
	return f.Label, nil
}

// laneFC runs a dense layer whose inputs (windows) and weights fit
// ld's operands on ld's lane path, reporting whether it ran; it
// declines, leaving the layer to dotMulti and its errors, when the
// weights do not fit ld. The weights are held stationary on the lanes
// (output neurons across them), transposed once per layer, as the
// paper's MRR banks hold synapses; the batch's inputs are prepared as
// filters into pooled scratch and swept over them, quads of inputs
// fanned across the pool. Every (neuron, input) dot product is
// computed exactly once, so values and Stats are dotMulti's.
func (f *FullyConnected) laneFC(ctx context.Context, run *batchRun, ld LaneDotter, workers int, rq *Requant, filters, windows [][]uint64, sc *runScratch) (bool, error) {
	if f.wor > uint64(1)<<uint(ld.Bits())-1 {
		return false, nil
	}
	held := f.stationary.Load()
	if held == nil {
		var err error
		if held, err = ld.PrepareLanes(filters); err != nil {
			return false, nil
		}
		f.stationary.Store(held)
	}
	inputs := &sc.inputs
	if err := ld.Prepare(inputs, windows); err != nil {
		return true, err
	}
	outs := growRows(&sc.out, &sc.outHdrs, len(windows), f.Out)
	quads := (len(windows) + 3) / 4
	var err error
	if chunks := parallel.Clamp(workers, quads); chunks == 1 {
		_, err = ld.LaneBatch(held, inputs, outs)
	} else {
		err = parallel.For(ctx, chunks, workers, func(_ context.Context, ci int) error {
			lo, hi := 4*(ci*quads/chunks), min(len(windows), 4*((ci+1)*quads/chunks))
			_, err := ld.LaneBatch(held, inputs.Slice(lo, hi), outs[lo:hi])
			return err
		})
	}
	if err != nil {
		return true, err
	}
	if fw, ok := ld.(FlipWalker); ok {
		window := func(w int) []uint64 { return windows[w] }
		if err := walk(fw, len(windows), window, filters, outs, true, len(windows)); err != nil {
			return true, err
		}
	}
	f.store(run, outs, true, rq)
	return true, nil
}

// store requantizes the layer's MAC values into arena tensors, one per
// input: rows[o][b] per neuron, or rows[b][o] per input when byInput.
func (f *FullyConnected) store(run *batchRun, rows [][]uint64, byInput bool, rq *Requant) {
	for b := range run.xs {
		out := run.arena.Get(1, 1, f.Out)
		for o := range out.Data {
			var v uint64
			if byInput {
				v = rows[b][o]
			} else {
				v = rows[o][b]
			}
			out.Data[o] = requantVal(int64(v), rq)
		}
		run.replace(b, out)
	}
}

// stage implements Layer for a conv with no fused epilogue.
func (c *Conv) stage(ctx context.Context, run *batchRun, d Dotter, workers int) error {
	_, err := c.applyBatchFused(ctx, run, d, workers, nil, nil)
	return err
}

// stage implements Layer for a dense layer with no fused epilogue.
func (f *FullyConnected) stage(ctx context.Context, run *batchRun, d Dotter, workers int) error {
	_, err := f.applyBatchFused(ctx, run, d, workers, nil)
	return err
}

// mapElems rewrites every activation element through fn: owned
// activations in place, borrowed ones into fresh arena tensors.
func (r *batchRun) mapElems(fn func(int64) int64) {
	for b, in := range r.xs {
		out := in
		if !r.owned[b] {
			out = r.arena.Get(in.H, in.W, in.C)
		}
		for i, v := range in.Data {
			out.Data[i] = fn(v)
		}
		r.replace(b, out)
	}
}

// stage implements Layer for a Requant not fused into a MAC stage.
func (r *Requant) stage(_ context.Context, run *batchRun, _ Dotter, _ int) error {
	if r.Max < 1 {
		return fmt.Errorf("qnn: requant max %d", r.Max)
	}
	run.mapElems(func(v int64) int64 { return requantVal(v, r) })
	return nil
}

// stage implements Layer for a MaxPool not fused into a conv stage,
// pooling into arena tensors and recycling owned inputs.
func (p *MaxPool) stage(_ context.Context, run *batchRun, _ Dotter, _ int) error {
	for b, in := range run.xs {
		if p.Window < 1 || in.H%p.Window != 0 || in.W%p.Window != 0 {
			return fmt.Errorf("input %d: tensor: pool window %d does not tile %dx%d", b, p.Window, in.H, in.W)
		}
		out := run.arena.Get(in.H/p.Window, in.W/p.Window, in.C)
		tensor.MaxPoolInto(out, in, p.Window)
		run.replace(b, out)
	}
	return nil
}

// stage implements Layer for Flatten: owned activations are reshaped
// in place (HWC order already matches the flattened vector), borrowed
// ones copied into arena tensors.
func (f *Flatten) stage(_ context.Context, run *batchRun, _ Dotter, _ int) error {
	for b, in := range run.xs {
		if run.owned[b] {
			in.H, in.W, in.C = 1, 1, in.Len()
			continue
		}
		out := run.arena.Get(1, 1, in.Len())
		copy(out.Data, in.Data)
		run.replace(b, out)
	}
	return nil
}
