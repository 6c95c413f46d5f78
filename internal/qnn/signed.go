package qnn

import (
	"context"
	"fmt"

	"pixel/internal/tensor"
)

// Signed-weight layers. Real quantized CNNs keep non-negative
// activations (post-ReLU) but signed weights; the optical datapaths
// support this through offset encoding (see internal/bitserial), which
// SignedDotter abstracts.

// SignedDotter computes signed inner products (activations are still
// passed as int64 but must be non-negative and in range).
type SignedDotter interface {
	SignedDotProduct(a, b []int64) (int64, error)
}

// ReferenceSignedDotter is the plain-integer oracle.
type ReferenceSignedDotter struct{}

// SignedDotProduct implements SignedDotter.
func (ReferenceSignedDotter) SignedDotProduct(a, b []int64) (int64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("qnn: vector lengths differ (%d vs %d)", len(a), len(b))
	}
	var acc int64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// SignedLayer is a layer whose MACs need signed weights.
type SignedLayer interface {
	Name() string
	ApplySigned(in *tensor.Tensor, d SignedDotter) (*tensor.Tensor, error)
}

// SignedConv is a convolution with signed weights.
type SignedConv struct {
	Label  string
	Kernel *tensor.Kernel
	Stride int
}

// Name implements SignedLayer.
func (c *SignedConv) Name() string { return c.Label }

// ApplySigned implements SignedLayer: the input is lowered once to an
// im2col patch matrix, and each output position's window is swept
// across the filters, one SignedDotProduct per (position, filter).
func (c *SignedConv) ApplySigned(in *tensor.Tensor, d SignedDotter) (*tensor.Tensor, error) {
	k := c.Kernel
	if in.C != k.C {
		return nil, fmt.Errorf("qnn: input channels %d != kernel channels %d", in.C, k.C)
	}
	var p tensor.PatchMatrix
	if err := tensor.LowerInto(&p, in, k.R, c.Stride, 0); err != nil {
		return nil, fmt.Errorf("qnn: %s: %w", c.Label, err)
	}
	out := tensor.New(p.EH, p.EW, k.M)
	for pos := 0; pos < p.Rows; pos++ {
		for m := 0; m < k.M; m++ {
			acc, err := d.SignedDotProduct(p.Row(pos), k.Filter(m))
			if err != nil {
				return nil, fmt.Errorf("qnn: %s: %w", c.Label, err)
			}
			out.Data[pos*k.M+m] = acc
		}
	}
	return out, nil
}

// SignedModel is a sequence mixing signed MAC layers with the plain
// (Dotter-free) layers of Model: pooling, requant+ReLU, flatten.
type SignedModel struct {
	Label  string
	Layers []any // SignedLayer or Dotter-free Layer entries
}

// Run executes the model: SignedLayer entries use the SignedDotter;
// plain Layer entries (MaxPool, Requant, Flatten) run their stage on a
// batch of one.
func (m *SignedModel) Run(in *tensor.Tensor, d SignedDotter) (*tensor.Tensor, error) {
	run := &batchRun{xs: []*tensor.Tensor{in}, owned: []bool{false}, arena: tensor.NewArena()}
	for _, l := range m.Layers {
		var err error
		switch layer := l.(type) {
		case SignedLayer:
			var y *tensor.Tensor
			if y, err = layer.ApplySigned(run.xs[0], d); err == nil {
				run.replace(0, y)
			}
		case Layer:
			if err = layer.stage(context.TODO(), run, nil, 1); err != nil {
				err = fmt.Errorf("layer %s: %w", layer.Name(), err)
			}
		default:
			return nil, fmt.Errorf("qnn: %s: unsupported layer type %T", m.Label, l)
		}
		if err != nil {
			return nil, fmt.Errorf("qnn: %s: %w", m.Label, err)
		}
	}
	return run.xs[0], nil
}
