package pixel

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"pixel/internal/bitserial"
	"pixel/internal/montecarlo"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

// InferSpec configures one batched inference call: a batch of images
// run through a named demo network's quantized pipeline on the batched
// bit-serial engine.
type InferSpec struct {
	// Network names the demo network (see InferNetworks; "lenet" is
	// the golden-test LeNet).
	Network string
	// Images is the batch: each image is the H*W*C activation values
	// in HWC order, within the network's activation range.
	Images [][]int64
	// Workers sizes the per-batch worker pool; <= 0 means GOMAXPROCS.
	// Results are bit-identical at any worker count.
	Workers int
}

// InferResult is one image's inference output.
type InferResult struct {
	// Outputs is the final layer's raw activation vector (class scores
	// for the demo networks).
	Outputs []int64 `json:"outputs"`
	// ArgMax is the index of the largest output (first on ties) — the
	// predicted class.
	ArgMax int `json:"argmax"`
}

// InferShape describes a network's expected image geometry.
type InferShape struct {
	H, W, C int
	// MaxValue is the largest admissible activation (2^bits - 1).
	MaxValue int64
}

// InferNetworks lists the demo networks InferContext can run.
func InferNetworks() []string { return montecarlo.Networks() }

// inferNet is one cached, ready-to-serve inference network: the model,
// its input geometry, and a shared batched engine sized to its longest
// dot product. All fields are read-only after construction, and both
// the model layers and the engine are safe for concurrent use.
type inferNet struct {
	model *qnn.Model
	shape InferShape
	eng   *bitserial.BatchedStripes
}

var (
	inferMu   sync.Mutex
	inferNets = map[string]*inferNet{}

	// inferArenas recycles whole tensor arenas across InferContext
	// calls: each call borrows one arena (arenas are single-threaded by
	// contract), draws its input and inter-layer activation tensors from
	// it, and returns everything before putting the arena back — so
	// steady-state batched inference reuses the previous batch's
	// activation storage instead of allocating.
	inferArenas = sync.Pool{New: func() any { return tensor.NewArena() }}
)

// inferNetwork resolves (and memoizes) a named inference network; the
// per-name build cost — weight generation and engine sizing — is paid
// once per process.
func inferNetwork(name string) (*inferNet, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	inferMu.Lock()
	defer inferMu.Unlock()
	if n, ok := inferNets[key]; ok {
		return n, nil
	}
	net, err := montecarlo.BuildNetwork(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownNetwork, name, montecarlo.Networks())
	}
	eng, err := bitserial.NewBatchedStripes(net.Bits, net.Terms)
	if err != nil {
		return nil, err
	}
	n := &inferNet{
		model: net.Model,
		shape: InferShape{
			H:        net.Input.H,
			W:        net.Input.W,
			C:        net.Input.C,
			MaxValue: net.Model.MaxActivation(),
		},
		eng: eng,
	}
	inferNets[key] = n
	return n, nil
}

// InferNetworkShape returns the image geometry the named network
// expects — what a client must send InferContext.
func InferNetworkShape(name string) (InferShape, error) {
	n, err := inferNetwork(name)
	if err != nil {
		return InferShape{}, err
	}
	return n.shape, nil
}

// InferContext runs a batch of images through a demo network as
// batched quantized inference, with cancellation. The whole batch
// executes as one word-parallel pass on the batched bit-serial engine
// (bit-identical to per-image sequential inference); spec failures
// surface ErrUnknownNetwork or ErrBadSpec.
func InferContext(ctx context.Context, spec InferSpec) ([]InferResult, error) {
	n, err := inferNetwork(spec.Network)
	if err != nil {
		return nil, err
	}
	if len(spec.Images) == 0 {
		return nil, fmt.Errorf("%w: empty image batch", ErrBadSpec)
	}
	want := n.shape.H * n.shape.W * n.shape.C
	arena := inferArenas.Get().(*tensor.Arena)
	defer inferArenas.Put(arena)
	ins := make([]*tensor.Tensor, len(spec.Images))
	for b, img := range spec.Images {
		if len(img) != want {
			arena.Put(ins...)
			return nil, fmt.Errorf("%w: image %d has %d values, want %d (%dx%dx%d)",
				ErrBadSpec, b, len(img), want, n.shape.H, n.shape.W, n.shape.C)
		}
		for i, v := range img {
			if v < 0 || v > n.shape.MaxValue {
				arena.Put(ins...)
				return nil, fmt.Errorf("%w: image %d value %d at %d outside [0,%d]",
					ErrBadSpec, b, v, i, n.shape.MaxValue)
			}
		}
		t := arena.Get(n.shape.H, n.shape.W, n.shape.C)
		copy(t.Data, img)
		ins[b] = t
	}
	outs, err := n.model.RunBatch(ctx, ins, n.eng, qnn.RunOptions{Workers: spec.Workers, Arena: arena})
	if err != nil {
		arena.Put(ins...)
		return nil, err
	}
	// Copy the class scores out of the arena tensors (one flat backing
	// array — every image has the same output length), then hand both
	// the inputs and the outputs back for the next batch. RunBatch can
	// return an input tensor as an output (a zero-layer model), so
	// guard against recycling the same tensor twice.
	results := make([]InferResult, len(outs))
	flat := make([]int64, len(outs)*outs[0].Len())
	for b, out := range outs {
		vals := flat[b*out.Len() : (b+1)*out.Len() : (b+1)*out.Len()]
		copy(vals, out.Data)
		results[b] = InferResult{Outputs: vals, ArgMax: tensor.ArgMax(out)}
	}
	arena.Put(ins...)
	for b, out := range outs {
		if out != ins[b] {
			arena.Put(out)
		}
	}
	return results, nil
}
