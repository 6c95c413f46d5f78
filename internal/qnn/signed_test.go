package qnn

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"pixel/internal/omac"
	"pixel/internal/optsim"
	"pixel/internal/tensor"
)

// ooSignedDotter routes signed MACs through the all-optical unit.
type ooSignedDotter struct {
	u   *omac.OOUnit
	led *optsim.Ledger
}

func (o ooSignedDotter) SignedDotProduct(a, b []int64) (int64, error) {
	return o.u.SignedDotProduct(a, b, o.led)
}

func TestReferenceSignedDotter(t *testing.T) {
	var d ReferenceSignedDotter
	got, err := d.SignedDotProduct([]int64{1, -2}, []int64{3, 4})
	if err != nil || got != -5 {
		t.Errorf("dot = %d, %v", got, err)
	}
	if _, err := d.SignedDotProduct([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

// signedStudyModel: conv with signed weights -> ReLU clamp -> pool.
func signedStudyModel(rng *rand.Rand) *SignedModel {
	k := tensor.NewKernel(2, 3, 1)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(15) - 7 // signed 4-bit-ish weights
	}
	return &SignedModel{
		Label: "signed-study",
		Layers: []any{
			&SignedConv{Label: "sconv", Kernel: k, Stride: 1},
			&Requant{Label: "relu", Shift: 3, Max: 15}, // clamps negatives to 0: ReLU
			&MaxPool{Label: "pool", Window: 2},
		},
	}
}

func TestSignedModelOpticalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := signedStudyModel(rng)
	in := tensor.New(6, 6, 1)
	for i := range in.Data {
		in.Data[i] = rng.Int63n(8) // activations fit the signed range
	}
	ref, err := m.Run(in, ReferenceSignedDotter{})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := omac.NewOOUnit(omac.DefaultConfig(4, 5), 16)
	if err != nil {
		t.Fatal(err)
	}
	led := optsim.NewLedger()
	got, err := m.Run(in, ooSignedDotter{unit, led})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if got.Data[i] != ref.Data[i] {
			t.Fatalf("optical signed output[%d] = %d, reference %d", i, got.Data[i], ref.Data[i])
		}
	}
	if led.Energy(optsim.CatMul) <= 0 {
		t.Error("optical signed inference should meter energy")
	}
}

func TestSignedModelRejectsUnknownLayerType(t *testing.T) {
	m := &SignedModel{Label: "bad", Layers: []any{42}}
	if _, err := m.Run(tensor.New(1, 1, 1), ReferenceSignedDotter{}); err == nil {
		t.Error("unsupported layer type should error")
	}
}

func TestSignedConvValidation(t *testing.T) {
	c := &SignedConv{Label: "c", Kernel: tensor.NewKernel(1, 3, 2), Stride: 1}
	if _, err := c.ApplySigned(tensor.New(4, 4, 1), ReferenceSignedDotter{}); err == nil {
		t.Error("channel mismatch should error")
	}
	c2 := &SignedConv{Label: "c2", Kernel: tensor.NewKernel(1, 3, 1), Stride: 0}
	if _, err := c2.ApplySigned(tensor.New(4, 4, 1), ReferenceSignedDotter{}); err == nil {
		t.Error("zero stride should error")
	}
	c3 := &SignedConv{Label: "c3", Kernel: tensor.NewKernel(1, 5, 1), Stride: 1}
	if _, err := c3.ApplySigned(tensor.New(4, 4, 1), ReferenceSignedDotter{}); err == nil {
		t.Error("oversized kernel should error")
	}
}

// TestMACLayerWithoutDotter proves a Conv or FullyConnected run with
// no Dotter — handed nil in a Model, or placed in a SignedModel, which
// gives its plain layers none — returns an error naming the layer
// instead of panicking.
func TestMACLayerWithoutDotter(t *testing.T) {
	layers := []Layer{
		&Conv{Label: "conv", Kernel: tensor.NewKernel(1, 3, 1), Stride: 1},
		&FullyConnected{Label: "fc", Weights: make([]int64, 16), Out: 1},
	}
	for _, l := range layers {
		models := map[string]func(in *tensor.Tensor) (*tensor.Tensor, error){
			"Model": func(in *tensor.Tensor) (*tensor.Tensor, error) {
				return (&Model{Label: "m", ActivationBits: 4, Layers: []Layer{l}}).Run(in, nil)
			},
			"SignedModel": func(in *tensor.Tensor) (*tensor.Tensor, error) {
				return (&SignedModel{Label: "m", Layers: []any{l}}).Run(in, ReferenceSignedDotter{})
			},
		}
		for kind, run := range models {
			t.Run(kind+"/"+l.Name(), func(t *testing.T) {
				_, err := run(tensor.New(4, 4, 1))
				if !errors.Is(err, errNoDotter) || !strings.Contains(err.Error(), "layer "+l.Name()) {
					t.Errorf("err = %v, want errNoDotter naming layer %s", err, l.Name())
				}
			})
		}
	}
}
