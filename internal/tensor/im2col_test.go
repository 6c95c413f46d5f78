package tensor

import (
	"math/rand"
	"testing"
)

// randTensor fills a tensor with small pseudo-random values (including
// negatives, so lowering is exercised beyond the quantized range).
func randTensor(rng *rand.Rand, h, w, c int) *Tensor {
	t := New(h, w, c)
	for i := range t.Data {
		t.Data[i] = rng.Int63n(31) - 8
	}
	return t
}

func randKernel(rng *rand.Rand, m, r, c int) *Kernel {
	k := NewKernel(m, r, c)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(31) - 8
	}
	return k
}

// TestLowerMatchesAtGather checks every patch row against the padded
// per-element At gather, covering both the interior fast path and the
// boundary fallback.
func TestLowerMatchesAtGather(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ h, w, c, r, stride, pad int }{
		{6, 6, 1, 3, 1, 0},
		{6, 6, 1, 3, 1, 2}, // all-boundary rows
		{7, 5, 3, 3, 2, 1},
		{4, 4, 2, 4, 1, 0}, // single window, whole input
		{9, 9, 2, 1, 3, 0}, // 1x1 kernel
		{5, 5, 1, 3, 1, 4}, // pad larger than kernel
	}
	for _, tc := range cases {
		in := randTensor(rng, tc.h, tc.w, tc.c)
		p, err := Lower(in, tc.r, tc.stride, tc.pad)
		if err != nil {
			t.Fatalf("Lower(%+v): %v", tc, err)
		}
		if p.Rows != p.EH*p.EW || p.Cols != tc.r*tc.r*tc.c {
			t.Fatalf("Lower(%+v): shape %dx%d (EH %d EW %d)", tc, p.Rows, p.Cols, p.EH, p.EW)
		}
		for oy := 0; oy < p.EH; oy++ {
			for ox := 0; ox < p.EW; ox++ {
				row := p.Row(oy*p.EW + ox)
				i := 0
				for ky := 0; ky < tc.r; ky++ {
					for kx := 0; kx < tc.r; kx++ {
						for c := 0; c < tc.c; c++ {
							want := in.At(oy*tc.stride+ky-tc.pad, ox*tc.stride+kx-tc.pad, c)
							if row[i] != want {
								t.Fatalf("Lower(%+v): row(%d,%d)[%d] = %d, want %d", tc, oy, ox, i, row[i], want)
							}
							i++
						}
					}
				}
			}
		}
	}
}

func TestLowerRejectsBadShapes(t *testing.T) {
	in := New(4, 4, 1)
	if _, err := Lower(in, 3, 0, 0); err == nil {
		t.Error("stride 0 should error")
	}
	if _, err := Lower(in, 3, 1, -1); err == nil {
		t.Error("negative pad should error")
	}
	if _, err := Lower(in, 0, 1, 0); err == nil {
		t.Error("kernel 0 should error")
	}
	if _, err := Lower(in, 5, 1, 0); err == nil {
		t.Error("kernel larger than padded input should error")
	}
}

// lowerConv is the convolution as the qnn conv stage computes it: the
// input lowered to an im2col patch matrix once, every filter reduced
// to plain dot products over its rows.
func lowerConv(in *Tensor, k *Kernel, stride, pad int) (*Tensor, error) {
	p, err := Lower(in, k.R, stride, pad)
	if err != nil {
		return nil, err
	}
	out := New(p.EH, p.EW, k.M)
	for m := 0; m < k.M; m++ {
		w := k.Filter(m)
		for i := 0; i < p.Rows; i++ {
			var acc int64
			for j, v := range p.Row(i) {
				acc += v * w[j]
			}
			out.Data[i*k.M+m] = acc
		}
	}
	return out, nil
}

// TestConv2DMatchesReference is the randomized property test: the
// lowered convolution must be bit-identical to the direct-loop oracle
// over random shapes, strides and paddings.
func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		h := 1 + rng.Intn(9)
		w := 1 + rng.Intn(9)
		c := 1 + rng.Intn(4)
		r := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		if h+2*pad < r || w+2*pad < r {
			continue
		}
		in := randTensor(rng, h, w, c)
		k := randKernel(rng, m, r, c)
		want, err := Conv2DReference(in, k, stride, pad)
		if err != nil {
			t.Fatalf("reference conv h%d w%d c%d r%d m%d s%d p%d: %v", h, w, c, r, m, stride, pad, err)
		}
		got, err := lowerConv(in, k, stride, pad)
		if err != nil {
			t.Fatalf("lowered conv h%d w%d c%d r%d m%d s%d p%d: %v", h, w, c, r, m, stride, pad, err)
		}
		if got.H != want.H || got.W != want.W || got.C != want.C {
			t.Fatalf("shape %dx%dx%d, want %dx%dx%d", got.H, got.W, got.C, want.H, want.W, want.C)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("conv h%d w%d c%d r%d m%d s%d p%d: out[%d] = %d, want %d",
					h, w, c, r, m, stride, pad, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestConv2DErrorParity(t *testing.T) {
	in := New(4, 4, 2)
	k := NewKernel(1, 3, 1) // channel mismatch
	if _, err := Conv2DReference(in, k, 1, 0); err == nil {
		t.Error("reference channel mismatch should error")
	}
	k2 := NewKernel(1, 5, 2)
	if _, err := lowerConv(in, k2, 1, 0); err == nil {
		t.Error("oversized kernel should error")
	}
	if _, err := Conv2DReference(in, k2, 1, 0); err == nil {
		t.Error("reference oversized kernel should error")
	}
}
