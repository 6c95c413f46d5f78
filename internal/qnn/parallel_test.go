package qnn

import (
	"context"
	"math/rand"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/tensor"
)

// fastDotter adapts the word-level Stripes engine; it is stateless and
// safe for any worker count.
type fastDotter struct{ e *bitserial.FastEngine }

func (f fastDotter) DotProduct(a, b []uint64) (uint64, error) {
	v, _, err := f.e.DotProduct(a, b)
	return v, err
}

// TestConvParallelMatchesReference is the randomized conv property:
// over random shapes, strides, paddings, batch sizes and worker counts,
// both the serial RunContext chain and a RunBatch pass over the conv alone
// must be bit-identical to the seed serial tensor.Conv2DReference. Run
// it under -race to also prove the pool writes disjoint output slots.
func TestConvParallelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		h := 3 + rng.Intn(10)
		w := 3 + rng.Intn(10)
		c := 1 + rng.Intn(3)
		r := 1 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		workers := 1 + rng.Intn(8)
		batch := 1 + rng.Intn(4)
		if h+2*pad < r || w+2*pad < r {
			continue
		}
		k := tensor.NewKernel(m, r, c)
		for i := range k.Data {
			k.Data[i] = rng.Int63n(16)
		}
		conv := &Conv{Label: "c", Kernel: k, Stride: stride, Pad: pad}
		ins := make([]*tensor.Tensor, batch)
		for b := range ins {
			ins[b] = tensor.New(h, w, c)
			for i := range ins[b].Data {
				ins[b].Data[i] = rng.Int63n(16)
			}
		}
		model := &Model{Label: "conv", ActivationBits: 4, Layers: []Layer{conv}}
		outs, err := model.RunBatch(context.Background(), ins, ReferenceDotter{}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("trial %d (h%d w%d c%d r%d m%d s%d p%d wk%d): %v", trial, h, w, c, r, m, stride, pad, workers, err)
		}
		for b, in := range ins {
			want, err := tensor.Conv2DReference(in, k, stride, pad)
			if err != nil {
				t.Fatalf("trial %d: reference: %v", trial, err)
			}
			serial, err := applyOne(conv, in, ReferenceDotter{})
			if err != nil {
				t.Fatalf("trial %d: RunContext: %v", trial, err)
			}
			for path, got := range map[string]*tensor.Tensor{"RunContext": serial, "RunBatch": outs[b]} {
				if got.H != want.H || got.W != want.W || got.C != want.C {
					t.Fatalf("trial %d %s: shape %dx%dx%d, want %dx%dx%d", trial, path, got.H, got.W, got.C, want.H, want.W, want.C)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("trial %d %s input %d (h%d w%d c%d r%d m%d s%d p%d wk%d): out[%d] = %d, want %d",
							trial, path, b, h, w, c, r, m, stride, pad, workers, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestConvPadMatchesTensorConv checks the new Pad field end to end
// against tensor.Conv2D's padded output.
func TestConvPadMatchesTensorConv(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := tensor.New(5, 5, 2)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(8)
	}
	k := tensor.NewKernel(3, 3, 2)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(8)
	}
	want, err := tensor.Conv2D(in, k, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conv := &Conv{Label: "padded", Kernel: k, Stride: 1, Pad: 1}
	got, err := applyOne(conv, in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	if got.H != 5 || got.W != 5 || got.C != 3 {
		t.Fatalf("padded shape %dx%dx%d, want 5x5x3 (same-conv)", got.H, got.W, got.C)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got.Data[i], want.Data[i])
		}
	}
	bad := &Conv{Label: "bad", Kernel: k, Stride: 1, Pad: -1}
	if _, err := applyOne(bad, in, ReferenceDotter{}); err == nil {
		t.Error("negative pad should error")
	}
}

// lenetModel is the shared demo LeNet (see demo.go); the golden test
// and the Monte-Carlo σ=0 degeneracy test perturb the same network.
func lenetModel(rng *rand.Rand) (*Model, *tensor.Tensor) {
	return DemoLeNet(rng)
}

// TestLeNetGolden proves the whole pipeline bit-identical across the
// serial reference, the parallel fused plan on the reference, the fast
// word-level Stripes engine (parallel fused plan) and the gate-model
// Stripes oracle (serial) — the paper's correctness claim, end to end.
func TestLeNetGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, in := lenetModel(rng)

	ref, err := m.Run(in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}

	par, err := runOne(m, in, ReferenceDotter{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fastEng, err := bitserial.NewFastEngine(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runOne(m, in, fastDotter{fastEng}, 3)
	if err != nil {
		t.Fatal(err)
	}
	gateEng, err := bitserial.NewEngine(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := m.Run(in, stripesDotter{gateEng})
	if err != nil {
		t.Fatal(err)
	}

	for i := range ref.Data {
		if par.Data[i] != ref.Data[i] {
			t.Fatalf("parallel ref out[%d] = %d, want %d", i, par.Data[i], ref.Data[i])
		}
		if fast.Data[i] != ref.Data[i] {
			t.Fatalf("fast stripes out[%d] = %d, want %d", i, fast.Data[i], ref.Data[i])
		}
		if gate.Data[i] != ref.Data[i] {
			t.Fatalf("gate stripes out[%d] = %d, want %d", i, gate.Data[i], ref.Data[i])
		}
	}
}

// TestRunContextCancellation checks a cancelled context aborts the
// pipeline promptly with the context's error.
func TestRunContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, in := lenetModel(rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx, in, ReferenceDotter{}, RunOptions{}); err == nil {
		t.Error("cancelled context should abort the run")
	}
}

// TestFullyConnectedParallelMatchesSerial pins RunBatch's neuron-chunk
// pool over an FC layer to the serial RunContext output.
func TestFullyConnectedParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n, outDim := 37, 23
	ws := make([]int64, n*outDim)
	for i := range ws {
		ws[i] = rng.Int63n(16)
	}
	in := tensor.New(1, 1, n)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(16)
	}
	fc := &FullyConnected{Label: "fc", Weights: ws, Out: outDim}
	want, err := applyOne(fc, in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{Label: "fc", ActivationBits: 4, Layers: []Layer{fc}}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := runOne(model, in, ReferenceDotter{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPlainDotterFallback checks that a Dotter without a multi-filter
// entry point goes through RunBatch's per-pair fallback and still
// matches.
func TestPlainDotterFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	in := tensor.New(6, 6, 2)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(16)
	}
	k := tensor.NewKernel(3, 3, 2)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(16)
	}
	conv := &Conv{Label: "c", Kernel: k, Stride: 1}
	want, err := applyOne(conv, in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bitserial.NewFastEngine(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// fastDotter implements only Dotter, so this exercises dotMulti's
	// fallback loop.
	var d Dotter = fastDotter{eng}
	if _, ok := d.(MultiDotter); ok {
		t.Fatal("fastDotter unexpectedly implements MultiDotter; test needs a plain Dotter")
	}
	model := &Model{Label: "c", ActivationBits: 4, Layers: []Layer{conv}}
	got, err := runOne(model, in, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got.Data[i], want.Data[i])
		}
	}
}

// runOne runs one input through RunBatch as a batch of one.
func runOne(m *Model, in *tensor.Tensor, d Dotter, workers int) (*tensor.Tensor, error) {
	outs, err := m.RunBatch(context.Background(), []*tensor.Tensor{in}, d, RunOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}
