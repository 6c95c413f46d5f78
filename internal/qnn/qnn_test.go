package qnn

import (
	"math/rand"
	"testing"

	"pixel/internal/bitserial"
	"pixel/internal/omac"
	"pixel/internal/optsim"
	"pixel/internal/tensor"
)

// stripesDotter adapts the bit-serial engine to the Dotter interface.
type stripesDotter struct{ e *bitserial.Engine }

func (s stripesDotter) DotProduct(a, b []uint64) (uint64, error) {
	v, _, err := s.e.DotProduct(a, b)
	return v, err
}

// ooDotter adapts the all-optical unit.
type ooDotter struct {
	u   *omac.OOUnit
	led *optsim.Ledger
}

func (o ooDotter) DotProduct(a, b []uint64) (uint64, error) {
	return o.u.DotProduct(a, b, o.led)
}

// tinyModel builds a small conv->pool->requant->flatten->fc model with
// deterministic pseudo-random weights in [0, 2^bits).
func tinyModel(bits int, rng *rand.Rand) *Model {
	maxW := int64(1)<<uint(bits) - 1
	k := tensor.NewKernel(3, 3, 1)
	for i := range k.Data {
		k.Data[i] = rng.Int63n(maxW + 1)
	}
	fcIn := 2 * 2 * 3
	fcW := make([]int64, fcIn*4)
	for i := range fcW {
		fcW[i] = rng.Int63n(maxW + 1)
	}
	return &Model{
		Label:          "tiny",
		ActivationBits: bits,
		Layers: []Layer{
			&Conv{Label: "conv1", Kernel: k, Stride: 1},
			&Requant{Label: "rq1", Shift: 4, Max: maxW},
			&MaxPool{Label: "pool1", Window: 2},
			&Flatten{Label: "flat"},
			&FullyConnected{Label: "fc", Weights: fcW, Out: 4},
		},
	}
}

// applyOne runs a single layer on one image: the one-stage unfused
// plan RunContext runs.
func applyOne(l Layer, in *tensor.Tensor, d Dotter) (*tensor.Tensor, error) {
	m := &Model{Label: l.Name(), ActivationBits: 16, Layers: []Layer{l}}
	return m.Run(in, d)
}

func tinyInput(bits int, rng *rand.Rand) *tensor.Tensor {
	in := tensor.New(6, 6, 1)
	maxV := int64(1)<<uint(bits) - 1
	for i := range in.Data {
		in.Data[i] = rng.Int63n(maxV + 1)
	}
	return in
}

func TestReferenceDotter(t *testing.T) {
	var d ReferenceDotter
	got, err := d.DotProduct([]uint64{1, 2, 3}, []uint64{4, 5, 6})
	if err != nil || got != 32 {
		t.Errorf("dot = %d, %v", got, err)
	}
	if _, err := d.DotProduct([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestModelRunsOnReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tinyModel(4, rng)
	in := tinyInput(4, rng)
	out, err := m.Run(in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("output len = %d", out.Len())
	}
}

func TestStripesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := tinyModel(4, rng)
	in := tinyInput(4, rng)
	ref, err := m.Run(in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bitserial.NewEngine(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run(in, stripesDotter{eng})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if got.Data[i] != ref.Data[i] {
			t.Fatalf("stripes output[%d] = %d, reference %d", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestOpticalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tinyModel(4, rng)
	in := tinyInput(4, rng)
	ref, err := m.Run(in, ReferenceDotter{})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := omac.NewOOUnit(omac.DefaultConfig(4, 4), 64)
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
			t.Fatalf("optical output[%d] = %d, reference %d", i, got.Data[i], ref.Data[i])
		}
	}
	if led.Energy(optsim.CatMul) <= 0 {
		t.Error("optical inference should meter energy")
	}
}

func TestModelValidation(t *testing.T) {
	m := &Model{Label: "bad", ActivationBits: 0}
	if _, err := m.Run(tensor.New(1, 1, 1), ReferenceDotter{}); err == nil {
		t.Error("activation bits 0 should error")
	}
}

func TestConvValidation(t *testing.T) {
	k := tensor.NewKernel(1, 3, 2)
	c := &Conv{Label: "c", Kernel: k, Stride: 1}
	if _, err := applyOne(c, tensor.New(4, 4, 1), ReferenceDotter{}); err == nil {
		t.Error("channel mismatch should error")
	}
	c2 := &Conv{Label: "c2", Kernel: tensor.NewKernel(1, 3, 1), Stride: 0}
	if _, err := applyOne(c2, tensor.New(4, 4, 1), ReferenceDotter{}); err == nil {
		t.Error("zero stride should error")
	}
	neg := tensor.New(4, 4, 1)
	neg.Data[0] = -1
	c3 := &Conv{Label: "c3", Kernel: tensor.NewKernel(1, 3, 1), Stride: 1}
	if _, err := applyOne(c3, neg, ReferenceDotter{}); err == nil {
		t.Error("negative activation should error")
	}
	badK := tensor.NewKernel(1, 3, 1)
	badK.Data[0] = -1
	c4 := &Conv{Label: "c4", Kernel: badK, Stride: 1}
	if _, err := applyOne(c4, tensor.New(4, 4, 1), ReferenceDotter{}); err == nil {
		t.Error("negative weight should error")
	}
}

func TestFullyConnectedValidation(t *testing.T) {
	fc := &FullyConnected{Label: "fc", Weights: []int64{1, 2, 3}, Out: 2}
	if _, err := applyOne(fc, tensor.New(1, 1, 2), ReferenceDotter{}); err == nil {
		t.Error("weight shape mismatch should error")
	}
}

func TestRequantClampsAndShifts(t *testing.T) {
	r := &Requant{Label: "rq", Shift: 2, Max: 15}
	in := tensor.NewVector([]int64{64, 3, 100, -8})
	out, err := applyOne(r, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{15, 0, 15, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("requant[%d] = %d, want %d", i, out.Data[i], want[i])
		}
	}
	bad := &Requant{Label: "bad", Max: 0}
	if _, err := applyOne(bad, in, nil); err == nil {
		t.Error("max 0 should error")
	}
}

func TestFlattenPreservesValues(t *testing.T) {
	in := tensor.New(2, 2, 1)
	for i := range in.Data {
		in.Data[i] = int64(i * 3)
	}
	f := &Flatten{Label: "f"}
	out, err := applyOne(f, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 1 || out.W != 1 || out.C != 4 {
		t.Errorf("flatten shape %dx%dx%d", out.H, out.W, out.C)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Error("flatten changed values")
		}
	}
}
