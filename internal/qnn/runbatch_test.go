package qnn

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/tensor"
)

// multiDotter adapts BatchedStripes (whose qnn-shaped methods satisfy
// Dotter/MultiDotter structurally) without importing qnn types into
// bitserial.
type multiDotter struct{ e *bitserial.BatchedStripes }

func (m multiDotter) DotProduct(a, b []uint64) (uint64, error) { return m.e.DotProduct(a, b) }
func (m multiDotter) DotProductsMulti(w, fs [][]uint64, outs [][]uint64) error {
	return m.e.DotProductsMulti(w, fs, outs)
}

var _ MultiDotter = multiDotter{}

// The raw engine is a LaneDotter: used directly, its convs take the
// lane path, while multiDotter keeps them on the lowered windows.
var _ LaneDotter = (*bitserial.BatchedStripes)(nil)

// TestRunBatchEquivalence is the pipeline-level acceptance property:
// RunBatch over B inputs is bit-identical to B sequential Run calls,
// for both engine tiers (the plain-Dotter fallback and the MultiDotter
// fast path) and any worker count.
func TestRunBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, in0 := DemoLeNet(rng)

	fe, err := bitserial.NewFastEngine(DemoLeNetBits, DemoLeNetTerms)
	if err != nil {
		t.Fatal(err)
	}
	be, err := bitserial.NewBatchedStripes(DemoLeNetBits, DemoLeNetTerms)
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

	for _, batch := range []int{1, 3, 8} {
		ins := make([]*tensor.Tensor, batch)
		for b := range ins {
			in := tensor.New(in0.H, in0.W, in0.C)
			for i := range in.Data {
				in.Data[i] = rng.Int63n(16)
			}
			ins[b] = in
		}
		want := make([]*tensor.Tensor, batch)
		for b := range ins {
			out, err := m.Run(ins[b], ReferenceDotter{})
			if err != nil {
				t.Fatal(err)
			}
			want[b] = out
		}
		for _, eng := range engines {
			for _, workers := range []int{1, 3, 0} {
				t.Run(fmt.Sprintf("B%d/%s/workers%d", batch, eng.name, workers), func(t *testing.T) {
					got, err := m.RunBatch(context.Background(), ins, eng.d, RunOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != batch {
						t.Fatalf("got %d outputs, want %d", len(got), batch)
					}
					for b := range got {
						if got[b].H != want[b].H || got[b].W != want[b].W || got[b].C != want[b].C {
							t.Fatalf("input %d: shape %dx%dx%d, want %dx%dx%d",
								b, got[b].H, got[b].W, got[b].C, want[b].H, want[b].W, want[b].C)
						}
						for i, v := range got[b].Data {
							if v != want[b].Data[i] {
								t.Fatalf("input %d: element %d = %d, want %d", b, i, v, want[b].Data[i])
							}
						}
					}
				})
			}
		}
	}
}

// recordingDotter is a plain Dotter that logs every call's operands.
type recordingDotter struct{ calls *[][2][]uint64 }

func (r recordingDotter) DotProduct(a, b []uint64) (uint64, error) {
	*r.calls = append(*r.calls, [2][]uint64{append([]uint64(nil), a...), append([]uint64(nil), b...)})
	return ReferenceDotter{}.DotProduct(a, b)
}

// recordingWalker is a FlipWalker over the batched engine that logs
// the operands of every call it walks and counts walked clean values
// that differ from the reference dot product. Its operands always fit
// the lanes, so a per-call DotProduct is an error.
type recordingWalker struct {
	LaneDotter
	calls *[][2][]uint64
	wrong *int
}

func (r recordingWalker) DotProduct(a, b []uint64) (uint64, error) {
	return 0, fmt.Errorf("per-call DotProduct on a walk")
}

func (r recordingWalker) DotFromClean(window func() []uint64, weights []uint64, clean uint64) (uint64, error) {
	v, err := recordingDotter{r.calls}.DotProduct(window(), weights)
	if v != clean {
		*r.wrong++
	}
	return v, err
}

// TestRunBatchCallOrder is the contract that lets a stateful engine (a
// fault injector consuming its flip stream call by call) run on the
// fused plan: RunBatch over a batch of one on one worker must issue the
// identical (a, b) DotProduct sequence as the serial RunContext chain,
// and a FlipWalker must be walked through that sequence with the
// right clean values. It pins callOrder, the order both iterate, on a
// ragged last row, and covers the padded demo LeNet and a strided,
// padded conv whose output rows are not square.
func TestRunBatchCallOrder(t *testing.T) {
	var order [][2]int
	if err := callOrder(5, 2, 2, func(f, w int) error {
		order = append(order, [2]int{f, w})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {0, 4}, {1, 4}}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("callOrder(5 windows, 2 filters, rows of 2) = %v, want %v", order, want)
	}
	be, err := bitserial.NewBatchedStripes(DemoLeNetBits, DemoLeNetTerms)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	lenet, lenetIn := DemoLeNet(rng)
	k := tensor.NewKernel(3, 3, 2)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(16)
	}
	fc := make([]int64, 4*5*3*6)
	for i := range fc {
		fc[i] = rng.Int63n(16)
	}
	strided := &Model{Label: "strided", ActivationBits: 4, Layers: []Layer{
		&Conv{Label: "c", Kernel: k, Stride: 2, Pad: 1}, // 7x9 -> 4x5
		&Requant{Label: "rq", Shift: 4, Max: 15},
		&Flatten{Label: "fl"},
		&FullyConnected{Label: "fc", Weights: fc, Out: 6},
	}}
	stridedIn := tensor.New(7, 9, 2)
	for i := range stridedIn.Data {
		stridedIn.Data[i] = rng.Int63n(16)
	}
	for _, tc := range []struct {
		m  *Model
		in *tensor.Tensor
	}{{lenet, lenetIn}, {strided, stridedIn}} {
		var serial, fused [][2][]uint64
		if _, err := tc.m.RunContext(context.Background(), tc.in, recordingDotter{&serial}, RunOptions{}); err != nil {
			t.Fatalf("%s: RunContext: %v", tc.m.Label, err)
		}
		if _, err := tc.m.RunBatch(context.Background(), []*tensor.Tensor{tc.in}, recordingDotter{&fused}, RunOptions{Workers: 1}); err != nil {
			t.Fatalf("%s: RunBatch: %v", tc.m.Label, err)
		}
		if len(fused) != len(serial) {
			t.Fatalf("%s: RunBatch made %d calls, RunContext %d", tc.m.Label, len(fused), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(fused[i], serial[i]) {
				t.Fatalf("%s: call %d differs:\nRunBatch   %v\nRunContext %v", tc.m.Label, i, fused[i], serial[i])
			}
		}
		var walked [][2][]uint64
		var wrong int
		if _, err := tc.m.RunBatch(context.Background(), []*tensor.Tensor{tc.in}, recordingWalker{be, &walked, &wrong}, RunOptions{Workers: 1}); err != nil {
			t.Fatalf("%s: RunBatch on a FlipWalker: %v", tc.m.Label, err)
		}
		if !reflect.DeepEqual(walked, serial) {
			t.Fatalf("%s: the walk's %d calls differ from RunContext's %d", tc.m.Label, len(walked), len(serial))
		}
		if wrong != 0 {
			t.Fatalf("%s: %d walked clean values differ from the reference", tc.m.Label, wrong)
		}
	}
}

// TestRunBatchErrors covers batch-level validation: empty batches,
// shape mismatches, nil entries and negative activations (reported for
// the right input).
func TestRunBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, in := DemoLeNet(rng)
	ctx := context.Background()

	if _, err := m.RunBatch(ctx, nil, ReferenceDotter{}, RunOptions{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := m.RunBatch(ctx, []*tensor.Tensor{in, nil}, ReferenceDotter{}, RunOptions{}); err == nil {
		t.Fatal("nil input accepted")
	}
	odd := tensor.New(in.H+1, in.W, in.C)
	if _, err := m.RunBatch(ctx, []*tensor.Tensor{in, odd}, ReferenceDotter{}, RunOptions{}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	neg := tensor.New(in.H, in.W, in.C)
	neg.Data[7] = -3
	_, err := m.RunBatch(ctx, []*tensor.Tensor{in, neg}, ReferenceDotter{}, RunOptions{})
	if err == nil {
		t.Fatal("negative activation accepted")
	}
	// The failing input is named, and it is the second one.
	if want := "input 1"; !contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.RunBatch(cctx, []*tensor.Tensor{in}, ReferenceDotter{}, RunOptions{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestLowerIntoReuse pins the pooled-scratch contract: a second
// LowerInto with a large-enough backing store reuses it and matches a
// fresh Lower bit for bit.
func TestLowerIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := tensor.New(10, 10, 3)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(16)
	}
	var p tensor.PatchMatrix
	if err := tensor.LowerInto(&p, in, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	backing := &p.Data[0]
	// Dirty the store, re-lower a smaller problem, and compare.
	for i := range p.Data {
		p.Data[i] = -99
	}
	small := tensor.New(6, 6, 2)
	for i := range small.Data {
		small.Data[i] = rng.Int63n(16)
	}
	if err := tensor.LowerInto(&p, small, 3, 1, 0); err != nil {
		t.Fatal(err)
	}
	if &p.Data[0] != backing {
		t.Fatal("LowerInto reallocated a large-enough backing store")
	}
	fresh, err := tensor.Lower(small, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != fresh.Rows || p.Cols != fresh.Cols || p.EH != fresh.EH || p.EW != fresh.EW {
		t.Fatalf("shape %d/%d/%d/%d != fresh %d/%d/%d/%d",
			p.Rows, p.Cols, p.EH, p.EW, fresh.Rows, fresh.Cols, fresh.EH, fresh.EW)
	}
	for i, v := range fresh.Data {
		if p.Data[i] != v {
			t.Fatalf("element %d = %d, want %d", i, p.Data[i], v)
		}
	}
}

// plainChain is the test-only oracle for the stage plan: each layer as
// the textbook integer operation — tensor.Conv2DReference, an explicit
// shift and clamp, tensor.MaxPool2D, a copy for flatten and a plain
// matmul — sharing no lowering, packing, epilogue or chunking code
// with the stages it checks.
func plainChain(m *Model, in *tensor.Tensor) (*tensor.Tensor, error) {
	x := in
	for _, l := range m.Layers {
		var err error
		switch l := l.(type) {
		case *Conv:
			x, err = tensor.Conv2DReference(x, l.Kernel, l.Stride, l.Pad)
		case *Requant:
			y := tensor.New(x.H, x.W, x.C)
			for i, v := range x.Data {
				v >>= l.Shift
				if v < 0 {
					v = 0
				}
				if v > l.Max {
					v = l.Max
				}
				y.Data[i] = v
			}
			x = y
		case *MaxPool:
			x, err = tensor.MaxPool2D(x, l.Window)
		case *Flatten:
			y := tensor.New(1, 1, x.Len())
			copy(y.Data, x.Data)
			x = y
		case *FullyConnected:
			n := x.Len()
			y := tensor.New(1, 1, l.Out)
			for o := range y.Data {
				for i, v := range x.Data {
					y.Data[o] += l.Weights[o*n+i] * v
				}
			}
			x = y
		case plusOne:
			y := tensor.New(x.H, x.W, x.C)
			for i, v := range x.Data {
				y.Data[i] = min(v+1, l.max)
			}
			x = y
		default:
			return nil, fmt.Errorf("plainChain: no oracle for layer %T", l)
		}
		if err != nil {
			return nil, fmt.Errorf("plainChain: %s: %w", l.Name(), err)
		}
	}
	return x, nil
}

// TestRunMatchesPlainOracle checks both plans against plainChain, an
// oracle independent of the stage code they share: Run (the unfused
// plan) per image and RunBatch (the fused plan) over the batch, on the
// demo LeNet, a strided padded conv with non-square output rows, and
// every fused-test pipeline, at batch 1 and 3, worker counts 1, 2 and
// GOMAXPROCS, on the plain-Dotter and MultiDotter engine tiers.
func TestRunMatchesPlainOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lenet, lenetIn := DemoLeNet(rng)
	k := tensor.NewKernel(3, 3, 2)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(16)
	}
	fc := make([]int64, 4*5*3*6)
	for i := range fc {
		fc[i] = rng.Int63n(16)
	}
	cases := []fusedCase{
		{name: "lenet", model: lenet, h: lenetIn.H, w: lenetIn.W, c: lenetIn.C},
		{name: "strided", model: &Model{Label: "strided", ActivationBits: 4, Layers: []Layer{
			&Conv{Label: "c", Kernel: k, Stride: 2, Pad: 1}, // 7x9 -> 4x5
			&Requant{Label: "rq", Shift: 4, Max: 15},
			&Flatten{Label: "fl"},
			&FullyConnected{Label: "fc", Weights: fc, Out: 6},
		}}, h: 7, w: 9, c: 2},
	}
	cases = append(cases, buildFusedCases(rng, 15)...)

	be, err := bitserial.NewBatchedStripes(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		d    Dotter
	}{{"reference", ReferenceDotter{}}, {"batched", multiDotter{be}}, {"lanes", be}}

	for _, tc := range cases {
		for _, batch := range []int{1, 3} {
			ins := make([]*tensor.Tensor, batch)
			want := make([]*tensor.Tensor, batch)
			for b := range ins {
				ins[b] = tensor.New(tc.h, tc.w, tc.c)
				for i := range ins[b].Data {
					ins[b].Data[i] = rng.Int63n(16)
				}
				if want[b], err = plainChain(tc.model, ins[b]); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
			check := func(path string, b int, got *tensor.Tensor) {
				t.Helper()
				if got.H != want[b].H || got.W != want[b].W || got.C != want[b].C {
					t.Fatalf("%s/B%d %s input %d: shape %dx%dx%d, want %dx%dx%d", tc.name, batch, path, b,
						got.H, got.W, got.C, want[b].H, want[b].W, want[b].C)
				}
				for i, v := range got.Data {
					if v != want[b].Data[i] {
						t.Fatalf("%s/B%d %s input %d: element %d = %d, want %d", tc.name, batch, path, b, i, v, want[b].Data[i])
					}
				}
			}
			for _, eng := range engines {
				for b, in := range ins {
					got, err := tc.model.Run(in, eng.d)
					if err != nil {
						t.Fatalf("%s %s Run: %v", tc.name, eng.name, err)
					}
					check("Run/"+eng.name, b, got)
				}
				for _, workers := range []int{1, 2, 0} {
					got, err := tc.model.RunBatch(context.Background(), ins, eng.d, RunOptions{Workers: workers})
					if err != nil {
						t.Fatalf("%s %s RunBatch workers=%d: %v", tc.name, eng.name, workers, err)
					}
					for b := range got {
						check(fmt.Sprintf("RunBatch/%s/workers%d", eng.name, workers), b, got[b])
					}
				}
			}
		}
	}
}
