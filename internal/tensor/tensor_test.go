package tensor

import (
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d", x.Len())
	}
	x.Set(1, 2, 3, 42)
	if x.At(1, 2, 3) != 42 {
		t.Error("Set/At round trip failed")
	}
	// Out-of-bounds reads are zero (implicit padding).
	if x.At(-1, 0, 0) != 0 || x.At(0, 3, 0) != 0 || x.At(0, 0, 4) != 0 {
		t.Error("out-of-bounds reads must be zero")
	}
}

func TestSetPanicsOutOfBounds(t *testing.T) {
	x := New(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	x.Set(2, 0, 0, 1)
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 1, 1)
}

// setWeight stores filter m's weight at (ky, kx, c).
func setWeight(k *Kernel, m, ky, kx, c int, v int64) {
	k.Filter(m)[(ky*k.R+kx)*k.C+c] = v
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := New(3, 3, 1)
	for i := range in.Data {
		in.Data[i] = int64(i + 1)
	}
	k := NewKernel(1, 1, 1)
	setWeight(k, 0, 0, 0, 0, 1)
	out, err := Conv2DReference(in, k, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv mismatch at %d", i)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no padding -> 2x2 sums.
	in := New(3, 3, 1)
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	copy(in.Data, vals)
	k := NewKernel(1, 2, 1)
	for ky := 0; ky < 2; ky++ {
		for kx := 0; kx < 2; kx++ {
			setWeight(k, 0, ky, kx, 0, 1)
		}
	}
	out, err := Conv2DReference(in, k, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{12, 16, 24, 28}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, out.Data[i], w)
		}
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	in := New(4, 4, 1)
	for i := range in.Data {
		in.Data[i] = 1
	}
	k := NewKernel(1, 3, 1)
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			setWeight(k, 0, ky, kx, 0, 1)
		}
	}
	// Same padding, stride 1: output 4x4; corners see 4 ones.
	out, err := Conv2DReference(in, k, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 4 || out.W != 4 {
		t.Fatalf("output %dx%d, want 4x4", out.H, out.W)
	}
	if out.At(0, 0, 0) != 4 || out.At(1, 1, 0) != 9 || out.At(0, 1, 0) != 6 {
		t.Errorf("padded conv values wrong: %d %d %d", out.At(0, 0, 0), out.At(1, 1, 0), out.At(0, 1, 0))
	}
	// Stride 2: output 2x2.
	out2, err := Conv2DReference(in, k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out2.H != 2 || out2.W != 2 {
		t.Errorf("strided output %dx%d, want 2x2", out2.H, out2.W)
	}
}

func TestConv2DMultiChannelMultiFilter(t *testing.T) {
	in := New(2, 2, 2)
	for i := range in.Data {
		in.Data[i] = int64(i)
	}
	k := NewKernel(2, 1, 2) // two 1x1 filters over 2 channels
	setWeight(k, 0, 0, 0, 0, 1)
	setWeight(k, 0, 0, 0, 1, 1) // filter 0 sums channels
	setWeight(k, 1, 0, 0, 0, 2)
	setWeight(k, 1, 0, 0, 1, 0) // filter 1 doubles channel 0
	out, err := Conv2DReference(in, k, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 2 || out.H != 2 || out.W != 2 {
		t.Fatalf("bad output shape %dx%dx%d", out.H, out.W, out.C)
	}
	if out.At(0, 0, 0) != 0+1 || out.At(0, 0, 1) != 0 {
		t.Error("filter outputs wrong at (0,0)")
	}
	if out.At(1, 1, 0) != 6+7 || out.At(1, 1, 1) != 12 {
		t.Error("filter outputs wrong at (1,1)")
	}
}

func TestConv2DErrors(t *testing.T) {
	in := New(4, 4, 3)
	k := NewKernel(1, 3, 2) // channel mismatch
	if _, err := Conv2DReference(in, k, 1, 0); err == nil {
		t.Error("channel mismatch should error")
	}
	k2 := NewKernel(1, 5, 3) // kernel too large
	if _, err := Conv2DReference(in, k2, 1, 0); err == nil {
		t.Error("oversized kernel should error")
	}
	k3 := NewKernel(1, 3, 3)
	if _, err := Conv2DReference(in, k3, 0, 0); err == nil {
		t.Error("zero stride should error")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := New(4, 4, 1)
	for i := range in.Data {
		in.Data[i] = int64(i)
	}
	out, err := MaxPool2D(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("pool[%d] = %d, want %d", i, out.Data[i], w)
		}
	}
	if _, err := MaxPool2D(in, 3); err == nil {
		t.Error("non-tiling window should error")
	}
}

func TestArgMax(t *testing.T) {
	for _, tc := range []struct {
		vals []int64
		want int
	}{
		{[]int64{-5, 3, 200, 7}, 2},
		{[]int64{-5, -3, -200}, 1},
		{[]int64{4, 9, 9, 1}, 1}, // first on ties
		{[]int64{0}, 0},
	} {
		if got := ArgMax(&Tensor{H: 1, W: 1, C: len(tc.vals), Data: tc.vals}); got != tc.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tc.vals, got, tc.want)
		}
	}
}

func TestConv2DLinearityProperty(t *testing.T) {
	// conv(a+b, k) == conv(a, k) + conv(b, k): convolution is linear.
	f := func(seedA, seedB [9]int8, kw [4]int8) bool {
		a := New(3, 3, 1)
		b := New(3, 3, 1)
		for i := 0; i < 9; i++ {
			a.Data[i] = int64(seedA[i])
			b.Data[i] = int64(seedB[i])
		}
		sum := New(3, 3, 1)
		for i := range sum.Data {
			sum.Data[i] = a.Data[i] + b.Data[i]
		}
		k := NewKernel(1, 2, 1)
		for i := 0; i < 4; i++ {
			k.Data[i] = int64(kw[i])
		}
		ca, err1 := Conv2DReference(a, k, 1, 0)
		cb, err2 := Conv2DReference(b, k, 1, 0)
		cs, err3 := Conv2DReference(sum, k, 1, 0)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range cs.Data {
			if cs.Data[i] != ca.Data[i]+cb.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
