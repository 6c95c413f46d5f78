package bitserial_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/qnn"
	"pixel/internal/tensor"
)

// laneRecorder is a qnn.LaneDotter over a BatchedStripes that records
// the Stats of each LaneBatch call.
type laneRecorder struct {
	*bitserial.BatchedStripes
	stats []bitserial.Stats
}

func (r *laneRecorder) LaneBatch(src bitserial.LaneSource, filters *bitserial.Filters, outs [][]uint64) (bitserial.Stats, error) {
	st, err := r.BatchedStripes.LaneBatch(src, filters, outs)
	r.stats = append(r.stats, st)
	return st, err
}

// windowsOnly is a qnn.MultiDotter over a BatchedStripes with no
// LaneBatch, so a conv lowers its windows and reaches FilterBatch.
type windowsOnly struct{ be *bitserial.BatchedStripes }

func (w windowsOnly) DotProduct(a, b []uint64) (uint64, error) { return w.be.DotProduct(a, b) }
func (w windowsOnly) DotProductsMulti(windows, filters, outs [][]uint64) error {
	return w.be.DotProductsMulti(windows, filters, outs)
}

// TestConvLaneSourceMatchesLowering is the lane path's acceptance
// property: a conv whose engine takes lane sources writes its windows
// straight into the column store, and must produce exactly the values
// and Stats of FilterBatch over the im2col-lowered windows. Geometry is
// random (R 1–5, stride 1–3, pad 0–2, C 1–6, window counts off the
// 64-lane and two-lane boundaries), with 4- and 8-bit operands and the
// vector kernels on and off.
func TestConvLaneSourceMatchesLowering(t *testing.T) {
	defer bitserial.SetVecForTest(bitserial.VectorSweep())
	engines := []struct {
		name        string
		bits, terms int
	}{
		{"4-bit", 4, 150},
		{"8-bit", 8, 1 << 10},
	}
	rng := rand.New(rand.NewSource(30))
	for _, eng := range engines {
		be, err := bitserial.NewBatchedStripes(eng.bits, eng.terms)
		if err != nil {
			t.Fatal(err)
		}
		mask := int64(1)<<eng.bits - 1
		for trial := 0; trial < 40; trial++ {
			r, stride, pad, c := 1+rng.Intn(5), 1+rng.Intn(3), rng.Intn(3), 1+rng.Intn(6)
			h, w := r+rng.Intn(14), r+rng.Intn(14)
			if trial%4 == 0 {
				// 81 windows: odd, and a full group plus a tail.
				stride, h, w = 1, 8+r-2*pad, 8+r-2*pad
				h, w = max(h, r), max(w, r)
			}
			m := 1 + rng.Intn(7)
			k := tensor.NewKernel(m, r, c)
			for i := range k.Data {
				if rng.Intn(4) != 0 {
					k.Data[i] = rng.Int63n(mask + 1)
				}
			}
			ins := make([]*tensor.Tensor, 1+rng.Intn(3))
			for b := range ins {
				ins[b] = tensor.New(h, w, c)
				for i := range ins[b].Data {
					ins[b].Data[i] = rng.Int63n(mask + 1)
				}
			}
			model := &qnn.Model{Label: "lanes", ActivationBits: 8, Layers: []qnn.Layer{
				&qnn.Conv{Label: "conv", Kernel: k, Stride: stride, Pad: pad},
			}}
			for _, vec := range []bool{true, false} {
				name := fmt.Sprintf("%s/R%d_s%d_p%d_C%d_%dx%d/vec=%v", eng.name, r, stride, pad, c, h, w, vec)
				bitserial.SetVecForTest(vec)
				want, wantStats := loweredConv(t, be, ins, k, stride, pad)
				rec := &laneRecorder{BatchedStripes: be}
				outs, err := model.RunBatch(context.Background(), ins, rec, qnn.RunOptions{Workers: 1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fmt.Sprint(rec.stats) != fmt.Sprint(wantStats) {
					t.Fatalf("%s: LaneBatch Stats %+v, lowered %+v", name, rec.stats, wantStats)
				}
				for b, out := range outs {
					for pos, row := range want[b] {
						for f, v := range row {
							if got := out.Data[pos*m+f]; got != int64(v) {
								t.Fatalf("%s: image %d window %d filter %d: lane %d, lowered %d", name, b, pos, f, got, v)
							}
						}
					}
				}
			}
		}
	}
}

// loweredConv is the oracle: each image lowered by tensor.Lower and
// its windows run through FilterBatch, as want[b][window][filter],
// with each image's Stats.
func loweredConv(t *testing.T, be *bitserial.BatchedStripes, ins []*tensor.Tensor, k *tensor.Kernel, stride, pad int) ([][][]uint64, []bitserial.Stats) {
	t.Helper()
	n := k.R * k.R * k.C
	filters := make([][]uint64, k.M)
	for f := range filters {
		filters[f] = make([]uint64, n)
		for i := range filters[f] {
			filters[f][i] = uint64(k.Data[f*n+i])
		}
	}
	var stats []bitserial.Stats
	want := make([][][]uint64, len(ins))
	for b, in := range ins {
		p, err := tensor.Lower(in, k.R, stride, pad)
		if err != nil {
			t.Fatal(err)
		}
		windows := make([][]uint64, p.Rows)
		for w := range windows {
			windows[w] = make([]uint64, p.Cols)
			for i, v := range p.Row(w) {
				windows[w][i] = uint64(v)
			}
		}
		outs := make([][]uint64, k.M)
		for f := range outs {
			outs[f] = make([]uint64, p.Rows)
		}
		st, err := be.FilterBatch(windows, filters, outs)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
		want[b] = make([][]uint64, p.Rows)
		for w := range want[b] {
			want[b][w] = make([]uint64, k.M)
			for f := range outs {
				want[b][w][f] = outs[f][w]
			}
		}
	}
	return want, stats
}

// TestConvLaneOutOfRange pins the error of an out-of-range or negative
// activation on an engine that takes lane sources: exactly the error
// the lowered windows path returns.
func TestConvLaneOutOfRange(t *testing.T) {
	be, err := bitserial.NewBatchedStripes(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	k := tensor.NewKernel(2, 3, 1)
	for i := range k.Data {
		k.Data[i] = 1
	}
	model := &qnn.Model{Label: "lanes", ActivationBits: 4, Layers: []qnn.Layer{
		&qnn.Conv{Label: "conv", Kernel: k, Stride: 1, Pad: 1},
	}}
	for _, tc := range []struct {
		v    int64
		want string
	}{
		{16, "qnn: lanes: layer conv: input 1: bitserial: window 1: bitserial: neuron 16 exceeds 4-bit range"},
		{-3, "qnn: lanes: layer conv: qnn: input 1: negative activation -3 at (1,2,0)"},
	} {
		ins := []*tensor.Tensor{tensor.New(4, 4, 1), tensor.New(4, 4, 1)}
		ins[1].Data[6] = tc.v // (1,2): first inside window 1
		for _, d := range []qnn.Dotter{be, windowsOnly{be}} {
			_, err := model.RunBatch(context.Background(), ins, d, qnn.RunOptions{Workers: 1})
			if err == nil || err.Error() != tc.want {
				t.Errorf("activation %d through %T: error %v, want %q", tc.v, d, err, tc.want)
			}
		}
	}
}

// plainDotter is a qnn.Dotter over the sequential engine, recording
// every call's operands when calls is non-nil.
type plainDotter struct {
	fe    *bitserial.FastEngine
	calls *[][2][]uint64
}

func (p plainDotter) DotProduct(a, b []uint64) (uint64, error) {
	if p.calls != nil {
		*p.calls = append(*p.calls, [2][]uint64{a, b})
	}
	v, _, err := p.fe.DotProduct(a, b)
	return v, err
}

// TestPrepareFCOrientations is the property behind a dense layer's
// lane path, which holds the weights stationary on the lanes and
// sweeps the inputs over them as prepared filters. For random batch B,
// output count Out and input length n, with 4- and 8-bit operands and
// the vector kernels on and off: the whole batch swept at once, and
// swept in quad chunks of its handle (Slice, as the layer fans them
// across its pool), give the sequential engine's value for every
// (neuron, input) pair and its summed Stats. Through RunBatch, at
// batches across the quad and 64-lane boundaries and with one and two
// workers, the layer matches a plain Dotter, an out-of-range input
// fails with the text of the lowered path, and a plain Dotter still
// sees dotMulti's call sequence: every input against neuron 0, then
// neuron 1, ...
func TestPrepareFCOrientations(t *testing.T) {
	defer bitserial.SetVecForTest(bitserial.VectorSweep())
	rng := rand.New(rand.NewSource(32))
	for _, eng := range []struct {
		name        string
		bits, terms int
	}{{"4-bit", 4, 512}, {"8-bit", 8, 1 << 14}} {
		be, err := bitserial.NewBatchedStripes(eng.bits, eng.terms)
		if err != nil {
			t.Fatal(err)
		}
		fe := be.Fast()
		maxV := uint64(1)<<eng.bits - 1
		vectors := func(count, n int) [][]uint64 {
			v := make([][]uint64, count)
			for i := range v {
				v[i] = make([]uint64, n)
				for j := range v[i] {
					if rng.Intn(5) != 0 {
						v[i][j] = rng.Uint64() & maxV
					}
				}
			}
			return v
		}
		for trial := 0; trial < 30; trial++ {
			batch, out, n := 1+rng.Intn(80), 1+rng.Intn(45), rng.Intn(300)
			weights, inputs := vectors(out, n), vectors(batch, n)
			var wantStats bitserial.Stats
			want := make([][]uint64, out)
			for o := range want {
				want[o] = make([]uint64, batch)
				for b := range want[o] {
					v, st, err := fe.DotProduct(inputs[b], weights[o])
					if err != nil {
						t.Fatal(err)
					}
					want[o][b] = v
					wantStats.Cycles += st.Cycles
					wantStats.BitANDs += st.BitANDs
					wantStats.Adds += st.Adds
					wantStats.Shifts += st.Shifts
				}
			}
			for _, vec := range []bool{true, false} {
				bitserial.SetVecForTest(vec)
				name := fmt.Sprintf("%s/B%d_Out%d_n%d/vec=%v", eng.name, batch, out, n, vec)

				held, err := be.PrepareLanes(weights)
				if err != nil {
					t.Fatal(err)
				}
				swept := new(bitserial.Filters)
				if err := be.Prepare(swept, inputs); err != nil {
					t.Fatal(err)
				}
				byInput := make([][]uint64, batch)
				for b := range byInput {
					byInput[b] = make([]uint64, out)
				}
				st, err := be.LaneBatch(held, swept, byInput)
				if err != nil {
					t.Fatalf("%s: stationary weights: %v", name, err)
				}
				if st != wantStats {
					t.Fatalf("%s: stationary weights Stats %+v, want %+v", name, st, wantStats)
				}

				chunkedOut := make([][]uint64, batch)
				for b := range chunkedOut {
					chunkedOut[b] = make([]uint64, out)
				}
				var chunked bitserial.Stats
				for lo := 0; lo < batch; {
					hi := min(batch, lo+4*(1+rng.Intn(3)))
					st, err := be.LaneBatch(held, swept.Slice(lo, hi), chunkedOut[lo:hi])
					if err != nil {
						t.Fatalf("%s: chunked inputs: %v", name, err)
					}
					chunked.Cycles += st.Cycles
					chunked.BitANDs += st.BitANDs
					chunked.Adds += st.Adds
					chunked.Shifts += st.Shifts
					lo = hi
				}
				if chunked != wantStats {
					t.Fatalf("%s: chunked inputs Stats %+v, want %+v", name, chunked, wantStats)
				}
				for o := range want {
					for b, v := range want[o] {
						if byInput[b][o] != v || chunkedOut[b][o] != v {
							t.Fatalf("%s: neuron %d input %d: whole batch %d, chunked %d, want %d",
								name, o, b, byInput[b][o], chunkedOut[b][o], v)
						}
					}
				}
			}
		}

		// Through RunBatch, one chunk and fanned.
		n, out := 1+rng.Intn(200), 1+rng.Intn(45)
		w := make([]int64, out*n)
		for i := range w {
			w[i] = rng.Int63n(int64(maxV) + 1)
		}
		model := &qnn.Model{Label: "fc", ActivationBits: eng.bits, Layers: []qnn.Layer{
			&qnn.FullyConnected{Label: "fc", Weights: w, Out: out},
		}}
		for _, batch := range []int{1, 3, 7, 8, 9, 64} {
			ins := make([]*tensor.Tensor, batch)
			for b := range ins {
				ins[b] = tensor.New(1, 1, n)
				for i := range ins[b].Data {
					ins[b].Data[i] = rng.Int63n(int64(maxV) + 1)
				}
			}
			for _, vec := range []bool{true, false} {
				bitserial.SetVecForTest(vec)
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%s/RunBatch/B%d/vec=%v/workers%d", eng.name, batch, vec, workers)
					got, err := model.RunBatch(context.Background(), ins, be, qnn.RunOptions{Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantOut, err := model.RunBatch(context.Background(), ins, plainDotter{fe: fe}, qnn.RunOptions{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					for b := range got {
						for o, v := range got[b].Data {
							if v != wantOut[b].Data[o] {
								t.Fatalf("%s: input %d neuron %d: lanes %d, plain %d", name, b, o, v, wantOut[b].Data[o])
							}
						}
					}
				}
			}

			// An input out of range fails as the lowered path does.
			bad := make([]*tensor.Tensor, batch)
			for b := range bad {
				bad[b] = tensor.New(1, 1, n)
				copy(bad[b].Data, ins[b].Data)
			}
			bad[batch-1].Data[n-1] = int64(maxV) + 1
			_, laneErr := model.RunBatch(context.Background(), bad, be, qnn.RunOptions{Workers: 1})
			_, lowErr := model.RunBatch(context.Background(), bad, windowsOnly{be}, qnn.RunOptions{Workers: 1})
			if laneErr == nil || lowErr == nil || laneErr.Error() != lowErr.Error() {
				t.Errorf("%s B%d: out-of-range input: lane error %v, lowered %v", eng.name, batch, laneErr, lowErr)
			}

			// A plain Dotter sees dotMulti's order.
			var calls [][2][]uint64
			if _, err := model.RunBatch(context.Background(), ins, plainDotter{fe: fe, calls: &calls}, qnn.RunOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			if len(calls) != out*batch {
				t.Fatalf("%s B%d: plain Dotter saw %d calls, want %d", eng.name, batch, len(calls), out*batch)
			}
			for i, c := range calls {
				o, b := i/batch, i%batch
				for j := range c[0] {
					if c[0][j] != uint64(ins[b].Data[j]) || c[1][j] != uint64(w[o*n+j]) {
						t.Fatalf("%s B%d: call %d is not input %d against neuron %d", eng.name, batch, i, b, o)
					}
				}
			}
		}
	}
}
