package qnn

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/omac"
	"pixel/internal/optsim"
	"pixel/internal/tensor"
)

// benchLeNet is the unpadded LeNet shape the pre-PR pipeline could
// also express, so legacy-vs-new numbers compare like for like:
// 20x20x1 -> conv 5x5x6 -> pool2 -> conv 5x5x16 -> pool2 -> fc40 ->
// fc10, 4-bit operands.
func benchLeNet() (*Model, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(31))
	maxV := int64(15)
	k1 := tensor.NewKernel(6, 5, 1)
	for i := range k1.Data {
		k1.Data[i] = rng.Int63n(maxV + 1)
	}
	k2 := tensor.NewKernel(16, 5, 6)
	for i := range k2.Data {
		k2.Data[i] = rng.Int63n(maxV + 1)
	}
	fc1 := make([]int64, 2*2*16*40)
	for i := range fc1 {
		fc1[i] = rng.Int63n(maxV + 1)
	}
	fc2 := make([]int64, 40*10)
	for i := range fc2 {
		fc2[i] = rng.Int63n(maxV + 1)
	}
	m := &Model{
		Label:          "bench-lenet",
		ActivationBits: 4,
		Layers: []Layer{
			&Conv{Label: "conv1", Kernel: k1, Stride: 1}, // -> 16x16x6
			&Requant{Label: "rq1", Shift: 8, Max: maxV},
			&MaxPool{Label: "pool1", Window: 2},          // -> 8x8x6
			&Conv{Label: "conv2", Kernel: k2, Stride: 1}, // -> 4x4x16
			&Requant{Label: "rq2", Shift: 10, Max: maxV},
			&MaxPool{Label: "pool2", Window: 2}, // -> 2x2x16
			&Flatten{Label: "flat"},
			&FullyConnected{Label: "fc1", Weights: fc1, Out: 40},
			&Requant{Label: "rq3", Shift: 10, Max: maxV},
			&FullyConnected{Label: "fc2", Weights: fc2, Out: 10},
		},
	}
	in := tensor.New(20, 20, 1)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(maxV + 1)
	}
	return m, in
}

// legacyConv replicates the seed Conv.Apply: window AND weights
// re-gathered element by element for every output position, one
// DotProduct per (oy, ox, m), no lowering, no prefetch, no pool.
type legacyConv struct {
	Label  string
	Kernel *tensor.Kernel
	Stride int
}

func (c *legacyConv) Name() string { return c.Label }

func (c *legacyConv) Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	k := c.Kernel
	if in.C != k.C {
		return nil, fmt.Errorf("qnn: input channels %d != kernel channels %d", in.C, k.C)
	}
	if c.Stride < 1 {
		return nil, fmt.Errorf("qnn: stride %d", c.Stride)
	}
	eh := (in.H-k.R)/c.Stride + 1
	ew := (in.W-k.R)/c.Stride + 1
	out := tensor.New(eh, ew, k.M)
	n := k.R * k.R * k.C
	window := make([]uint64, n)
	weights := make([]uint64, n)
	for oy := 0; oy < eh; oy++ {
		for ox := 0; ox < ew; ox++ {
			i := 0
			for ky := 0; ky < k.R; ky++ {
				for kx := 0; kx < k.R; kx++ {
					for ch := 0; ch < in.C; ch++ {
						window[i] = uint64(in.At(oy*c.Stride+ky, ox*c.Stride+kx, ch))
						i++
					}
				}
			}
			for m := 0; m < k.M; m++ {
				i = 0
				for ky := 0; ky < k.R; ky++ {
					for kx := 0; kx < k.R; kx++ {
						for ch := 0; ch < in.C; ch++ {
							weights[i] = uint64(k.At(m, ky, kx, ch))
							i++
						}
					}
				}
				acc, err := d.DotProduct(window, weights)
				if err != nil {
					return nil, err
				}
				out.Set(oy, ox, m, int64(acc))
			}
		}
	}
	return out, nil
}

// legacyFC replicates the seed FullyConnected.Apply: one weight-row
// gather per output neuron, serial.
type legacyFC struct {
	Label   string
	Weights []int64
	Out     int
}

func (f *legacyFC) Name() string { return f.Label }

func (f *legacyFC) Apply(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	n := in.Len()
	xs := make([]uint64, n)
	for i, v := range in.Data {
		xs[i] = uint64(v)
	}
	ws := make([]uint64, n)
	out := tensor.New(1, 1, f.Out)
	for o := 0; o < f.Out; o++ {
		for i := 0; i < n; i++ {
			ws[i] = uint64(f.Weights[o*n+i])
		}
		acc, err := d.DotProduct(xs, ws)
		if err != nil {
			return nil, err
		}
		out.Set(0, 0, o, int64(acc))
	}
	return out, nil
}

// legacyStep is one layer of the seed's serial chain: a fresh output
// tensor per layer per image.
type legacyStep func(in *tensor.Tensor, d Dotter) (*tensor.Tensor, error)

// legacyModel rebuilds benchLeNet as the seed's serial chain: the
// pre-PR conv and FC layers, and standalone requant, pool and flatten
// steps.
func legacyModel() ([]legacyStep, *tensor.Tensor) {
	m, in := benchLeNet()
	var steps []legacyStep
	for _, l := range m.Layers {
		switch layer := l.(type) {
		case *Conv:
			steps = append(steps, (&legacyConv{Label: layer.Label, Kernel: layer.Kernel, Stride: layer.Stride}).Apply)
		case *FullyConnected:
			steps = append(steps, (&legacyFC{Label: layer.Label, Weights: layer.Weights, Out: layer.Out}).Apply)
		case *Requant:
			steps = append(steps, func(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
				out := tensor.New(in.H, in.W, in.C)
				for i, v := range in.Data {
					out.Data[i] = requantVal(v, layer)
				}
				return out, nil
			})
		case *MaxPool:
			steps = append(steps, func(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
				return tensor.MaxPool2D(in, layer.Window)
			})
		case *Flatten:
			steps = append(steps, func(in *tensor.Tensor, _ Dotter) (*tensor.Tensor, error) {
				out := tensor.New(1, 1, in.Len())
				copy(out.Data, in.Data)
				return out, nil
			})
		default:
			panic(fmt.Sprintf("legacyModel: layer %T", l))
		}
	}
	return steps, in
}

// BenchmarkLeNetInferenceRefLegacySerial is the pre-PR baseline: the
// seed's per-position gather layers, serial, on the plain-integer
// reference dotter.
func BenchmarkLeNetInferenceRefLegacySerial(b *testing.B) {
	steps, in := legacyModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := in
		for _, step := range steps {
			var err error
			if x, err = step(x, ReferenceDotter{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLeNetInferenceRef is the production executor on the
// reference dotter: a RunBatch of one (im2col lowering, weights packed
// once, fused epilogues, worker pool).
func BenchmarkLeNetInferenceRef(b *testing.B) {
	m, in := benchLeNet()
	ctx := context.Background()
	ins := []*tensor.Tensor{in}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunBatch(ctx, ins, ReferenceDotter{}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeNetInferenceEE runs every MAC of a RunBatch of one
// through the word-level bit-exact Stripes engine (the fast electrical
// path).
func BenchmarkLeNetInferenceEE(b *testing.B) {
	m, in := benchLeNet()
	eng, err := bitserial.NewFastEngine(4, 512)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ins := []*tensor.Tensor{in}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunBatch(ctx, ins, fastDotter{eng}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeNetInferenceEEGate is the pre-PR electrical path: the
// gate-model CLA/barrel-shifter engine, one simulated cycle per
// synapse bit, serial.
func BenchmarkLeNetInferenceEEGate(b *testing.B) {
	m, in := benchLeNet()
	eng, err := bitserial.NewEngine(4, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(in, stripesDotter{eng}); err != nil {
			b.Fatal(err)
		}
	}
}

// oeDotter routes MACs through the hybrid optical-electrical unit; the
// shared ledger makes it serial-only.
type oeDotter struct {
	u   *omac.OEUnit
	led *optsim.Ledger
}

func (o oeDotter) DotProduct(a, b []uint64) (uint64, error) {
	return o.u.DotProduct(a, b, o.led)
}

// BenchmarkLeNetInferenceOE runs every MAC of a RunBatch of one
// through the simulated OE datapath (optical AND, electrical
// shift-accumulate). The optical circuit simulation dominates; the
// plan's lowering and weight packing still apply but the pool stays at
// one worker because the unit meters a shared energy ledger.
func BenchmarkLeNetInferenceOE(b *testing.B) {
	m, in := benchLeNet()
	unit, err := omac.NewOEUnit(omac.DefaultConfig(4, 4), 512)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ins := []*tensor.Tensor{in}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		led := optsim.NewLedger()
		if _, err := m.RunBatch(ctx, ins, oeDotter{unit, led}, RunOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
