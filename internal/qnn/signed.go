package qnn

import (
	"context"
	"fmt"

	"pixel/internal/parallel"
	"pixel/internal/tensor"
)

// Signed-weight layers. Real quantized CNNs keep non-negative
// activations (post-ReLU) but signed weights; the optical datapaths
// support this through offset encoding (see internal/bitserial), which
// SignedDotter abstracts. A SignedConv is a stage of the one plan: it
// takes its signed MACs from the model's Dotter, which must implement
// SignedDotter as well.

// SignedDotter computes signed inner products (activations are still
// passed as int64 but must be non-negative and in range).
type SignedDotter interface {
	SignedDotProduct(a, b []int64) (int64, error)
}

// SignedDotProduct implements SignedDotter: the plain-integer oracle.
func (ReferenceDotter) SignedDotProduct(a, b []int64) (int64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("qnn: vector lengths differ (%d vs %d)", len(a), len(b))
	}
	var acc int64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// SignedConv is a convolution with signed weights.
type SignedConv struct {
	Label  string
	Kernel *tensor.Kernel
	Stride int
}

// Name implements Layer.
func (c *SignedConv) Name() string { return c.Label }

// stage implements Layer: each image is lowered once to an im2col
// patch matrix on pooled scratch, and each output position's window is
// swept across the filters, one SignedDotProduct per (position,
// filter), so a metering unit charges in that order. Images fan across
// the pool as Conv's do.
func (c *SignedConv) stage(ctx context.Context, run *batchRun, d Dotter, workers int) error {
	sd, ok := d.(SignedDotter)
	if !ok {
		return errNoDotter
	}
	k := c.Kernel
	in0 := run.xs[0]
	if in0.C != k.C {
		return fmt.Errorf("qnn: input channels %d != kernel channels %d", in0.C, k.C)
	}
	if c.Stride < 1 {
		return fmt.Errorf("qnn: stride %d", c.Stride)
	}
	eh := (in0.H-k.R)/c.Stride + 1
	ew := (in0.W-k.R)/c.Stride + 1
	if eh < 1 || ew < 1 {
		return fmt.Errorf("qnn: kernel %d too large for %dx%d input", k.R, in0.H, in0.W)
	}
	outs := make([]*tensor.Tensor, len(run.xs))
	for b := range outs {
		outs[b] = run.arena.Get(eh, ew, k.M)
	}
	err := parallel.For(ctx, len(run.xs), workers, func(_ context.Context, b int) error {
		sc := runScratchPool.Get().(*runScratch)
		defer runScratchPool.Put(sc)
		p := &sc.pm
		if err := tensor.LowerInto(p, run.xs[b], k.R, c.Stride, 0); err != nil {
			return fmt.Errorf("input %d: %w", b, err)
		}
		for pos := 0; pos < p.Rows; pos++ {
			for m := 0; m < k.M; m++ {
				acc, err := sd.SignedDotProduct(p.Row(pos), k.Filter(m))
				if err != nil {
					return fmt.Errorf("input %d: %w", b, err)
				}
				outs[b].Data[pos*k.M+m] = acc
			}
		}
		return nil
	})
	if err != nil {
		run.arena.Put(outs...)
		return err
	}
	for b := range outs {
		run.replace(b, outs[b])
	}
	return nil
}
