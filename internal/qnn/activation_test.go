package qnn

import (
	"math"
	"testing"

	"pixel/internal/tensor"
)

func TestNewTanhActivationValidation(t *testing.T) {
	if _, err := NewTanhActivation("a", 12, 0, 0); err == nil {
		t.Error("zero output scale should error")
	}
	if _, err := NewTanhActivation("a", 0, 0, 15); err == nil {
		t.Error("bad fracBits should error")
	}
}

func TestTanhActivationSaturatesAndSigns(t *testing.T) {
	a, err := NewTanhActivation("act", 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	one := int64(1) << 10
	in := tensor.NewVector([]int64{0, 10 * one, -10 * one})
	out, err := applyOne(a, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 0 {
		t.Errorf("tanh(0) scaled = %d", out.Data[0])
	}
	if out.Data[1] != 100 || out.Data[2] != -100 {
		t.Errorf("saturation = %v, want +-100", out.Data[1:])
	}
}

func TestTanhActivationTracksMathTanh(t *testing.T) {
	a, err := NewTanhActivation("act", 12, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	one := int64(1) << 12
	for _, x := range []float64{-2, -0.7, -0.2, 0.3, 0.9, 1.8} {
		in := tensor.NewVector([]int64{int64(x * float64(one))})
		out, err := applyOne(a, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(out.Data[0]) / 1000
		if math.Abs(got-math.Tanh(x)) > 0.05 {
			t.Errorf("tanh(%v) = %v, want ~%v", x, got, math.Tanh(x))
		}
	}
}

func TestTanhActivationInModel(t *testing.T) {
	// A model ending in the activation hardware runs end to end.
	k := tensor.NewKernel(1, 2, 1)
	for i := range k.Data {
		k.Data[i] = 3
	}
	a, err := NewTanhActivation("act", 10, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Label:          "with-tanh",
		ActivationBits: 8,
		Layers: []Layer{
			&Conv{Label: "conv", Kernel: k, Stride: 1},
			a,
		},
	}
	in := tensor.New(3, 3, 1)
	for i := range in.Data {
		in.Data[i] = int64(i)
	}
	out, err := m.Run(in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v < -15 || v > 15 {
			t.Errorf("activation output %d out of [-15,15]", v)
		}
	}
}
