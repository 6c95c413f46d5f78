package qnn

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/tensor"
)

// plusOne is a test-only layer whose stage installs plain heap
// tensors, not arena ones, between fused stages, so the plan mixes
// owned arena tensors with plain heap tensors.
type plusOne struct{ max int64 }

func (plusOne) Name() string { return "plusone" }
func (p plusOne) stage(_ context.Context, run *batchRun, _ Dotter, _ int) error {
	for b, in := range run.xs {
		out := tensor.New(in.H, in.W, in.C)
		for i, v := range in.Data {
			v++
			if v > p.max {
				v = p.max
			}
			out.Data[i] = v
		}
		run.replace(b, out)
	}
	return nil
}

// fusedCase is one randomly shaped pipeline exercising a specific
// fusion pattern of the batched plan.
type fusedCase struct {
	name    string
	model   *Model
	h, w, c int
}

// buildFusedCases assembles pipelines covering every stage shape the
// planner can produce: fully fused Conv→Requant→MaxPool, the partial
// fusions (conv+rq, conv+pool), standalone Requant / MaxPool / Flatten
// stages (fed by a fallback layer so they see borrowed and owned
// tensors both), double requant, and FC with and without a fused
// requant.
func buildFusedCases(rng *rand.Rand, maxAct int64) []fusedCase {
	conv := func(label string, m, r, c int) *Conv {
		k := tensor.NewKernel(m, r, c)
		for i := range k.Data {
			k.Data[i] = rng.Int63n(maxAct + 1)
		}
		return &Conv{Label: label, Kernel: k, Stride: 1, Pad: rng.Intn(2)}
	}
	fc := func(label string, in, out int) *FullyConnected {
		ws := make([]int64, in*out)
		for i := range ws {
			ws[i] = rng.Int63n(maxAct + 1)
		}
		return &FullyConnected{Label: label, Weights: ws, Out: out}
	}
	rq := func(label string) *Requant {
		return &Requant{Label: label, Shift: uint(3 + rng.Intn(4)), Max: maxAct}
	}

	cases := []fusedCase{}
	// Fully fused: conv+rq+pool twice, flatten, fc+rq, fc.
	{
		c1 := conv("c1", 4, 3, 2) // 8x8 -> 8x8 (pad 1 so both pools tile)
		c1.Pad = 1
		eh := 8 + 2*c1.Pad - 2
		c2 := conv("c2", 3, 3, 4) // on pooled eh/2
		e2 := eh/2 + 2*c2.Pad - 2
		flatLen := (e2 / 2) * (e2 / 2) * 3
		cases = append(cases, fusedCase{
			name: "conv_rq_pool_x2_fc_rq",
			model: &Model{Label: "f1", ActivationBits: 4, Layers: []Layer{
				c1, rq("r1"), &MaxPool{Label: "p1", Window: 2},
				c2, rq("r2"), &MaxPool{Label: "p2", Window: 2},
				&Flatten{Label: "fl"},
				fc("fc1", flatLen, 6), rq("r3"),
				fc("fc2", 6, 5),
			}},
			h: 8, w: 8, c: 2,
		})
	}
	// Partial fusions and standalone element stages: conv+pool (no rq),
	// standalone rq on an owned tensor, fallback layer forcing borrowed
	// rq/pool/flatten paths, double requant.
	{
		c1 := conv("c1", 2, 3, 1) // pad p: 6x6 -> (4+2p)x(4+2p)
		eh := 6 + 2*c1.Pad - 2
		if eh%2 != 0 {
			c1.Pad = 1 - c1.Pad
			eh = 6 + 2*c1.Pad - 2
		}
		flatLen := (eh / 2) * (eh / 2) * 2
		cases = append(cases, fusedCase{
			name: "conv_pool_standalone_rq",
			model: &Model{Label: "f2", ActivationBits: 4, Layers: []Layer{
				c1, &MaxPool{Label: "p1", Window: 2},
				rq("r1"), rq("r2"),
				plusOne{max: 15},
				&Flatten{Label: "fl"},
				fc("fc1", flatLen, 4),
				rq("r3"),
			}},
			h: 6, w: 6, c: 1,
		})
	}
	// Fallback layer first, so every batched stage sees borrowed-like
	// fresh tensors; pool without a preceding MAC stage.
	{
		cases = append(cases, fusedCase{
			name: "borrowed_rq_pool_flatten",
			model: &Model{Label: "f3", ActivationBits: 4, Layers: []Layer{
				rq("r0"), // borrowed inputs: must not be mutated
				&MaxPool{Label: "p0", Window: 2},
				&Flatten{Label: "fl"},
				fc("fc1", 2*2*3, 7), rq("r1"),
			}},
			h: 4, w: 4, c: 3,
		})
	}
	return cases
}

// TestFusedBatchEquivalence is the fusion acceptance property: for
// random pipelines covering every fused and standalone stage shape,
// RunBatch (fused epilogues, arena recycling) is bit-identical to the
// unfused per-image chain — sequential RunContext calls running each
// layer standalone — for every engine tier and worker count, and the
// caller's input tensors come back untouched. The CI race leg runs
// this with -race, so the multi-worker cases double as a data-race
// probe over the shared arena coordination.
func TestFusedBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const maxAct = 15

	be, err := bitserial.NewBatchedStripes(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := bitserial.NewFastEngine(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		d    Dotter
	}{
		{"reference", ReferenceDotter{}},
		{"fast", fastDotter{fe}},
		{"batched", multiDotter{be}},
		{"lanes", be},
	}

	for _, tc := range buildFusedCases(rng, maxAct) {
		for _, batch := range []int{1, 3, 5} {
			ins := make([]*tensor.Tensor, batch)
			snapshot := make([][]int64, batch)
			for b := range ins {
				in := tensor.New(tc.h, tc.w, tc.c)
				for i := range in.Data {
					in.Data[i] = rng.Int63n(maxAct + 1)
				}
				ins[b] = in
				snapshot[b] = append([]int64(nil), in.Data...)
			}
			// The unfused reference: each image through the serial
			// per-layer chain.
			want := make([]*tensor.Tensor, batch)
			for b := range ins {
				out, err := tc.model.RunContext(context.Background(), ins[b], ReferenceDotter{}, RunOptions{Workers: 1})
				if err != nil {
					t.Fatalf("%s: reference: %v", tc.name, err)
				}
				want[b] = out
			}
			for _, eng := range engines {
				for _, workers := range []int{1, 2, 4, 0} {
					name := fmt.Sprintf("%s/B%d/%s/workers%d", tc.name, batch, eng.name, workers)
					t.Run(name, func(t *testing.T) {
						arena := tensor.NewArena()
						got, err := tc.model.RunBatch(context.Background(), ins, eng.d,
							RunOptions{Workers: workers, Arena: arena})
						if err != nil {
							t.Fatal(err)
						}
						for b := range got {
							if got[b].H != want[b].H || got[b].W != want[b].W || got[b].C != want[b].C {
								t.Fatalf("input %d: shape %dx%dx%d, want %dx%dx%d",
									b, got[b].H, got[b].W, got[b].C, want[b].H, want[b].W, want[b].C)
							}
							for i, v := range got[b].Data {
								if v != want[b].Data[i] {
									t.Fatalf("input %d element %d: %d != %d", b, i, v, want[b].Data[i])
								}
							}
						}
						for b := range ins {
							for i, v := range ins[b].Data {
								if v != snapshot[b][i] {
									t.Fatalf("caller input %d mutated at %d: %d != %d", b, i, v, snapshot[b][i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestFusedBatchErrors pins the failure surface of fused stages: the
// error names the layer actually at fault, whether it is the MAC head
// or a fused epilogue layer.
func TestFusedBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := tensor.NewKernel(2, 3, 1)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(4)
	}
	ctx := context.Background()
	in := tensor.New(6, 6, 1)

	// Fused requant with a bad clamp blames the requant layer.
	m := &Model{Label: "m", ActivationBits: 4, Layers: []Layer{
		&Conv{Label: "c", Kernel: k, Stride: 1},
		&Requant{Label: "badrq", Shift: 2, Max: 0},
	}}
	_, err := m.RunBatch(ctx, []*tensor.Tensor{in}, ReferenceDotter{}, RunOptions{})
	if err == nil || !contains(err.Error(), "layer badrq") {
		t.Fatalf("fused requant error = %v, want layer badrq blamed", err)
	}

	// Fused pool that does not tile the conv output blames the pool.
	m = &Model{Label: "m", ActivationBits: 4, Layers: []Layer{
		&Conv{Label: "c", Kernel: k, Stride: 1}, // 6x6 -> 4x4
		&Requant{Label: "rq", Shift: 2, Max: 15},
		&MaxPool{Label: "badpool", Window: 3},
	}}
	_, err = m.RunBatch(ctx, []*tensor.Tensor{in}, ReferenceDotter{}, RunOptions{})
	if err == nil || !contains(err.Error(), "layer badpool") || !contains(err.Error(), "does not tile") {
		t.Fatalf("fused pool error = %v, want layer badpool blamed", err)
	}

	// A standalone pool that does not tile reports the same way.
	m = &Model{Label: "m", ActivationBits: 4, Layers: []Layer{
		&MaxPool{Label: "solopool", Window: 4},
	}}
	_, err = m.RunBatch(ctx, []*tensor.Tensor{in}, ReferenceDotter{}, RunOptions{})
	if err == nil || !contains(err.Error(), "layer solopool") || !contains(err.Error(), "does not tile") {
		t.Fatalf("standalone pool error = %v, want layer solopool blamed", err)
	}
}
