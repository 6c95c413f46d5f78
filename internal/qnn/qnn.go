// Package qnn runs quantized CNN inference over any MAC implementation
// — the bridge between the functional datapaths (package omac /
// bitserial) and whole networks. A Model is a sequence of integer
// layers (conv, pool, fully-connected, requantize); every
// multiply-accumulate runs through the supplied Dotter, so the same
// model can execute on the electrical Stripes engine, the hybrid OE
// unit or the all-optical OO unit, and the outputs can be compared bit
// for bit against the plain-integer reference.
//
// RunBatch is the one production executor: a fused stage plan over
// im2col-lowered inputs with weights packed once per layer, fanned
// across a worker pool. Run/RunContext is the serial, unfused
// reference chain it is tested against, one DotProduct per (window,
// filter) pair. See docs/INFERENCE.md.
package qnn

import (
	"context"
	"fmt"
	"sync"

	"pixel/internal/tensor"
)

// Dotter is the MAC abstraction a model runs on: an unsigned
// dot-product engine of fixed operand precision.
type Dotter interface {
	DotProduct(a, b []uint64) (uint64, error)
}

// ReferenceDotter computes dot products with plain integer arithmetic —
// the oracle implementation.
type ReferenceDotter struct{}

// DotProduct implements Dotter.
func (ReferenceDotter) DotProduct(a, b []uint64) (uint64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("qnn: vector lengths differ (%d vs %d)", len(a), len(b))
	}
	var acc uint64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// MultiDotter is the layer-against-batch MAC abstraction: every filter
// of a layer evaluated against every window of a batch in one call, so
// the engine can hoist per-batch setup (transposes, validation) across
// the whole filter sweep. bitserial.BatchedStripes implements it; any
// other Dotter runs through dotMulti's per-pair fallback.
type MultiDotter interface {
	Dotter
	// DotProductsMulti writes windows[w] · filters[f] into outs[f][w].
	// len(outs) must equal len(filters) and each row must have
	// len(windows) slots.
	DotProductsMulti(windows [][]uint64, filters [][]uint64, outs [][]uint64) error
}

// Layer is one step of a quantized model.
type Layer interface {
	// Name labels the layer in errors.
	Name() string
	// Apply transforms the activation tensor using the Dotter for
	// every MAC.
	Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error)
}

// Model is a named sequence of layers with a fixed activation
// precision.
type Model struct {
	// Label names the model.
	Label string
	// ActivationBits bounds the activation values between layers;
	// Requant layers clamp to this range.
	ActivationBits int
	Layers         []Layer
}

// MaxActivation returns the largest representable activation.
func (m *Model) MaxActivation() int64 {
	return int64(1)<<uint(m.ActivationBits) - 1
}

// RunOptions tunes one RunBatch call; Run and RunContext ignore it.
type RunOptions struct {
	// Workers is the worker-pool width the MAC stages fan their work
	// across: the batch's images (conv) and chunks of output neurons
	// (fully-connected); <= 0 means GOMAXPROCS, 1 is serial. Workers > 1
	// requires a Dotter that is safe for concurrent use
	// (ReferenceDotter and bitserial.BatchedStripes are; an adapter
	// over optical units metering a shared optsim.Ledger or over the
	// stateful bitserial.PerturbedEngine is not). The bitserial Stripes
	// engines return Stats as well, so a model reaches them through
	// such an adapter. Output placement is deterministic, so any worker
	// count produces bit-identical results.
	Workers int
	// Arena, when non-nil, supplies and recycles the inter-layer
	// activation tensors of RunBatch, so steady-state batches reuse
	// prior batches' storage instead of allocating. The batch's output
	// tensors come from it too: callers that recycle them (Put after
	// consuming) must do so only after the results are fully copied
	// out. Nil means RunBatch uses a private arena (tensors are still
	// recycled between layers within the batch). An Arena is not safe
	// for concurrent use — concurrent RunBatch calls need separate
	// arenas (pool whole arenas, as pixel.Infer does).
	Arena *tensor.Arena
}

// Run executes the model on the input through the given Dotter as the
// serial, unfused reference chain — safe for any Dotter. RunBatch is
// the production executor and is bit-identical to it.
func (m *Model) Run(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	return m.RunContext(context.Background(), in, d, RunOptions{})
}

// RunContext is Run with cancellation checked between layers. Every
// layer runs its standalone Apply, so the intermediate tensors RunBatch
// fuses away are materialized; opts is ignored (RunOptions apply to
// RunBatch only).
func (m *Model) RunContext(ctx context.Context, in *tensor.Tensor, d Dotter, _ RunOptions) (*tensor.Tensor, error) {
	if m.ActivationBits < 1 || m.ActivationBits > 16 {
		return nil, fmt.Errorf("qnn: activation bits %d out of range [1,16]", m.ActivationBits)
	}
	x := in
	var err error
	for _, l := range m.Layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if x, err = l.Apply(x, d); err != nil {
			return nil, fmt.Errorf("qnn: %s: layer %s: %w", m.Label, l.Name(), err)
		}
	}
	return x, nil
}

// Conv is a quantized convolution layer.
type Conv struct {
	Label  string
	Kernel *tensor.Kernel
	Stride int
	// Pad is the zero padding on every side, wired through the im2col
	// lowering (parity with tensor.Conv2D); padded positions
	// contribute zero activations.
	Pad int

	// packOnce caches the engine-operand form of the kernel weights
	// the first time the layer runs (packedFilters); the kernel must
	// not be mutated afterwards.
	packOnce sync.Once
	packed   [][]uint64
	packErr  error
}

// Name implements Layer.
func (c *Conv) Name() string { return c.Label }

// Apply implements Layer, serially: the input is lowered to an im2col
// patch matrix, and each output row is swept filter by filter, one
// DotProduct per window. That row → filter → column order is the
// datapath order RunBatch's plain-Dotter fallback reproduces, so a
// stateful engine sees the same call sequence from either executor.
func (c *Conv) Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	k := c.Kernel
	if in.C != k.C {
		return nil, fmt.Errorf("qnn: input channels %d != kernel channels %d", in.C, k.C)
	}
	if c.Stride < 1 {
		return nil, fmt.Errorf("qnn: stride %d", c.Stride)
	}
	if c.Pad < 0 {
		return nil, fmt.Errorf("qnn: pad %d", c.Pad)
	}
	eh := (in.H+2*c.Pad-k.R)/c.Stride + 1
	ew := (in.W+2*c.Pad-k.R)/c.Stride + 1
	if eh < 1 || ew < 1 {
		return nil, fmt.Errorf("qnn: kernel %d too large for %dx%d input with pad %d", k.R, in.H, in.W, c.Pad)
	}
	for i, v := range in.Data {
		if v < 0 {
			return nil, fmt.Errorf("qnn: negative activation %d at (%d,%d,%d)",
				v, i/(in.W*in.C), (i/in.C)%in.W, i%in.C)
		}
	}

	p, err := tensor.Lower(in, k.R, c.Stride, c.Pad)
	if err != nil {
		return nil, fmt.Errorf("qnn: %s: %w", c.Label, err)
	}
	// Activations were validated non-negative above and padding
	// contributes zeros.
	wins := make([]uint64, len(p.Data))
	for i, v := range p.Data {
		wins[i] = uint64(v)
	}
	filters, err := c.packedFilters()
	if err != nil {
		return nil, err
	}
	out := tensor.New(p.EH, p.EW, k.M)
	for oy := 0; oy < p.EH; oy++ {
		for m, weights := range filters {
			for pos := oy * p.EW; pos < (oy+1)*p.EW; pos++ {
				acc, err := d.DotProduct(wins[pos*p.Cols:(pos+1)*p.Cols], weights)
				if err != nil {
					return nil, err
				}
				out.Data[pos*k.M+m] = int64(acc)
			}
		}
	}
	return out, nil
}

// MaxPool is a pooling layer (no MACs).
type MaxPool struct {
	Label  string
	Window int
}

// Name implements Layer.
func (p *MaxPool) Name() string { return p.Label }

// Apply implements Layer.
func (p *MaxPool) Apply(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
	return tensor.MaxPool2D(in, p.Window)
}

// FullyConnected is a quantized dense layer.
type FullyConnected struct {
	Label   string
	Weights []int64 // row-major [out][in]
	Out     int

	// packOnce caches the engine-operand form of the weight matrix the
	// first time the layer runs (packedWeights); the weights must not
	// be mutated afterwards.
	packOnce sync.Once
	packed   [][]uint64
	packErr  error
}

// Name implements Layer.
func (f *FullyConnected) Name() string { return f.Label }

// Apply implements Layer, serially: one DotProduct per output neuron.
func (f *FullyConnected) Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	n := in.Len()
	if f.Out < 1 {
		return nil, fmt.Errorf("qnn: output size %d", f.Out)
	}
	if len(f.Weights) != n*f.Out {
		return nil, fmt.Errorf("qnn: weight matrix %d != %d x %d", len(f.Weights), f.Out, n)
	}
	xs := make([]uint64, n)
	for i, v := range in.Data {
		if v < 0 {
			return nil, fmt.Errorf("qnn: negative activation %d", v)
		}
		xs[i] = uint64(v)
	}
	ws, err := f.packedWeights()
	if err != nil {
		return nil, err
	}
	out := tensor.New(1, 1, f.Out)
	for o, w := range ws {
		acc, err := d.DotProduct(xs, w)
		if err != nil {
			return nil, err
		}
		out.Data[o] = int64(acc)
	}
	return out, nil
}

// Requant rescales and clamps activations back into range between MAC
// layers (the fixed-point equivalent of the activation function stage).
type Requant struct {
	Label string
	Shift uint // divide by 2^Shift
	Max   int64
}

// Name implements Layer.
func (r *Requant) Name() string { return r.Label }

// Apply implements Layer.
func (r *Requant) Apply(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
	if r.Max < 1 {
		return nil, fmt.Errorf("qnn: requant max %d", r.Max)
	}
	out := tensor.New(in.H, in.W, in.C)
	for i, v := range in.Data {
		v >>= r.Shift
		if v < 0 {
			v = 0
		}
		if v > r.Max {
			v = r.Max
		}
		out.Data[i] = v
	}
	return out, nil
}

// Flatten reshapes to a vector (no MACs).
type Flatten struct{ Label string }

// Name implements Layer.
func (f *Flatten) Name() string { return f.Label }

// Apply implements Layer.
func (f *Flatten) Apply(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
	out := tensor.New(1, 1, in.Len())
	copy(out.Data, in.Data)
	return out, nil
}
