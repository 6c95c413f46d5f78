package qnn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pixel/internal/omac"
	"pixel/internal/optsim"
	"pixel/internal/tensor"
)

// SignedDotProduct routes signed MACs through the all-optical unit, so
// one ooDotter runs every layer of a signed model.
func (o ooDotter) SignedDotProduct(a, b []int64) (int64, error) {
	return o.u.SignedDotProduct(a, b, o.led)
}

func TestReferenceSignedDotter(t *testing.T) {
	var d ReferenceDotter
	got, err := d.SignedDotProduct([]int64{1, -2}, []int64{3, 4})
	if err != nil || got != -5 {
		t.Errorf("dot = %d, %v", got, err)
	}
	if _, err := d.SignedDotProduct([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

// signedStudyModel: conv with signed weights -> ReLU clamp -> pool.
func signedStudyModel(rng *rand.Rand) *Model {
	k := tensor.NewKernel(2, 3, 1)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(15) - 7 // signed 4-bit-ish weights
	}
	return &Model{
		Label:          "signed-study",
		ActivationBits: 4,
		Layers: []Layer{
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
	ref, err := m.Run(in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := omac.NewOOUnit(omac.DefaultConfig(4, 5), 16)
	if err != nil {
		t.Fatal(err)
	}
	led := optsim.NewLedger()
	got, err := m.Run(in, ooDotter{unit, led})
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

// TestSignedRunBatchMatchesRun checks a signed model's RunBatch at 1
// and 4 workers against Run on each image, bit for bit.
func TestSignedRunBatchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := signedStudyModel(rng)
	ins := make([]*tensor.Tensor, 5)
	for b := range ins {
		ins[b] = tensor.New(6, 6, 1)
		for i := range ins[b].Data {
			ins[b].Data[i] = rng.Int63n(8)
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := m.RunBatch(context.Background(), ins, ReferenceDotter{}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for b, in := range ins {
			want, err := m.Run(in, ReferenceDotter{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[b], want) {
				t.Errorf("workers %d image %d: RunBatch %+v, Run %+v", workers, b, got[b], want)
			}
		}
	}
}

// runSigned runs one signed conv as a model of its own.
func runSigned(c *SignedConv, in *tensor.Tensor) (*tensor.Tensor, error) {
	return (&Model{Label: "m", ActivationBits: 4, Layers: []Layer{c}}).Run(in, ReferenceDotter{})
}

func TestSignedConvValidation(t *testing.T) {
	c := &SignedConv{Label: "c", Kernel: tensor.NewKernel(1, 3, 2), Stride: 1}
	if _, err := runSigned(c, tensor.New(4, 4, 1)); err == nil {
		t.Error("channel mismatch should error")
	}
	c2 := &SignedConv{Label: "c2", Kernel: tensor.NewKernel(1, 3, 1), Stride: 0}
	if _, err := runSigned(c2, tensor.New(4, 4, 1)); err == nil {
		t.Error("zero stride should error")
	}
	c3 := &SignedConv{Label: "c3", Kernel: tensor.NewKernel(1, 5, 1), Stride: 1}
	if _, err := runSigned(c3, tensor.New(4, 4, 1)); err == nil {
		t.Error("oversized kernel should error")
	}
}

// unsignedDotter has DotProduct only: the interface field hides
// ReferenceDotter's SignedDotProduct.
type unsignedDotter struct{ Dotter }

// TestMACLayerWithoutDotter proves every MAC layer run without a
// Dotter it can use — handed nil, or a SignedConv handed one with no
// SignedDotProduct — returns errNoDotter naming the layer instead of
// panicking, through Run and through RunBatch at 1 and 4 workers.
func TestMACLayerWithoutDotter(t *testing.T) {
	sconv := &SignedConv{Label: "sconv", Kernel: tensor.NewKernel(1, 3, 1), Stride: 1}
	cases := []struct {
		name  string
		layer Layer
		d     Dotter
	}{
		{"conv", &Conv{Label: "conv", Kernel: tensor.NewKernel(1, 3, 1), Stride: 1}, nil},
		{"fc", &FullyConnected{Label: "fc", Weights: make([]int64, 16), Out: 1}, nil},
		{"sconv", sconv, nil},
		{"sconv-unsigned-dotter", sconv, unsignedDotter{ReferenceDotter{}}},
	}
	type runner struct {
		name string
		run  func(m *Model, in *tensor.Tensor, d Dotter) error
	}
	runners := []runner{{"Model", func(m *Model, in *tensor.Tensor, d Dotter) error {
		_, err := m.Run(in, d)
		return err
	}}}
	for _, workers := range []int{1, 4} {
		runners = append(runners, runner{fmt.Sprintf("RunBatch/workers%d", workers), func(m *Model, in *tensor.Tensor, d Dotter) error {
			_, err := m.RunBatch(context.Background(), []*tensor.Tensor{in, in}, d, RunOptions{Workers: workers})
			return err
		}})
	}
	for _, r := range runners {
		for _, tc := range cases {
			t.Run(r.name+"/"+tc.name, func(t *testing.T) {
				m := &Model{Label: "m", ActivationBits: 4, Layers: []Layer{tc.layer}}
				err := r.run(m, tensor.New(4, 4, 1), tc.d)
				if !errors.Is(err, errNoDotter) || !strings.Contains(err.Error(), "layer "+tc.layer.Name()) {
					t.Errorf("err = %v, want errNoDotter naming layer %s", err, tc.layer.Name())
				}
			})
		}
	}
}
