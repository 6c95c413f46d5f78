// Package qnn runs quantized CNN inference over any MAC implementation
// — the bridge between the functional datapaths (package omac /
// bitserial) and whole networks. A Model is a sequence of integer
// layers (conv, signed conv, pool, fully-connected, requantize); every
// multiply-accumulate runs through the supplied Dotter, so the same
// model can execute on the electrical Stripes engine, the hybrid OE
// unit or the all-optical OO unit, and the outputs can be compared bit
// for bit against the plain-integer reference.
//
// Every layer has one implementation: its stage in the stage plan,
// which runs over im2col-lowered inputs with weights packed once per
// layer, fanned across a worker pool. On a LaneDotter a conv skips the
// lowering and writes its windows straight into the engine's column
// store, and a dense layer holds its weights stationary there and
// sweeps the inputs over them. RunBatch runs the fused plan
// (Conv/FC stages absorb a trailing Requant/MaxPool); Run/RunContext
// runs the unfused plan, one stage per layer, on a batch of one image
// and one worker. See docs/INFERENCE.md.
package qnn

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"pixel/internal/bitserial"
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
	// stage runs the layer unfused over every image of run, using d
	// for every MAC and fanning its work across workers.
	stage(ctx context.Context, run *batchRun, d Dotter, workers int) error
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

// RunOptions tunes one RunBatch call; Run and RunContext ignore it
// (they run the unfused plan on one worker and a private arena).
type RunOptions struct {
	// Workers is the worker-pool width the MAC stages fan their work
	// across: the batch's images (conv) and chunks of output neurons
	// (fully-connected); <= 0 means GOMAXPROCS, 1 is serial. Workers > 1
	// requires a Dotter that is safe for concurrent use
	// (ReferenceDotter and bitserial.BatchedStripes are; an adapter
	// over optical units metering a shared optsim.Ledger or over the
	// stateful bitserial.PerturbedEngine is not). The bitserial Stripes
	// engines return Stats as well, so a model reaches them through
	// such an adapter. A model with a SignedConv also needs a
	// concurrency-safe SignedDotProduct for Workers > 1
	// (ReferenceDotter's is; a *pixel.MAC metering one ledger is not).
	// Output placement is deterministic, so any worker count produces
	// bit-identical results.
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

// Run executes the model on the input through the given Dotter: the
// unfused stage plan on one image and one worker, safe for any Dotter.
// RunBatch is bit-identical to it.
func (m *Model) Run(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	return m.RunContext(context.Background(), in, d, RunOptions{})
}

// RunContext is Run with cancellation checked between layers. Each
// layer is a stage of its own, so the intermediate tensors RunBatch
// fuses away are materialized, and a plain Dotter sees one DotProduct
// per (window, filter) pair in datapath order (see dotMulti); opts is
// ignored (RunOptions apply to RunBatch only).
func (m *Model) RunContext(ctx context.Context, in *tensor.Tensor, d Dotter, _ RunOptions) (*tensor.Tensor, error) {
	outs, err := m.runPlan(ctx, m.batchPlan(false), []*tensor.Tensor{in}, d, RunOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
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
	// the first time the layer runs (packedFilters), and lane holds
	// them prepared by the first LaneDotter to accept them; the kernel
	// must not be mutated afterwards.
	packOnce sync.Once
	packed   [][]uint64
	packErr  error
	lane     atomic.Pointer[bitserial.Filters]
}

// Name implements Layer.
func (c *Conv) Name() string { return c.Label }

// MaxPool is a pooling layer (no MACs).
type MaxPool struct {
	Label  string
	Window int
}

// Name implements Layer.
func (p *MaxPool) Name() string { return p.Label }

// FullyConnected is a quantized dense layer.
type FullyConnected struct {
	Label   string
	Weights []int64 // row-major [out][in]
	Out     int

	// packOnce caches the engine-operand form of the weight matrix and
	// the OR of its words the first time the layer runs
	// (packedWeights). On a LaneDotter, stationary holds the rows in
	// the column store of the first engine to accept them. The weights
	// must not be mutated afterwards.
	packOnce   sync.Once
	packed     [][]uint64
	packErr    error
	wor        uint64
	stationary atomic.Pointer[bitserial.Lanes]
}

// Name implements Layer.
func (f *FullyConnected) Name() string { return f.Label }

// Requant rescales and clamps activations back into range between MAC
// layers (the fixed-point equivalent of the activation function stage).
type Requant struct {
	Label string
	Shift uint // divide by 2^Shift
	Max   int64
}

// Name implements Layer.
func (r *Requant) Name() string { return r.Label }

// Flatten reshapes to a vector (no MACs).
type Flatten struct{ Label string }

// Name implements Layer.
func (f *Flatten) Name() string { return f.Label }
