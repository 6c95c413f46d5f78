package qnn

import (
	"context"
	"fmt"

	"pixel/internal/elec"
)

// TanhActivation runs the accelerator's actual activation hardware —
// the hybrid piecewise-linear tanh unit of elec — over the tensor,
// completing the Figure 3 pipeline (MAC accumulation -> activation ->
// output neuron lane) at the functional level.
//
// Accumulator values are interpreted as fixed point with InputFracBits
// fractional bits; outputs are tanh values re-scaled to OutputScale
// (so downstream quantized layers keep integer activations).
type TanhActivation struct {
	Label string
	// Unit is the functional hardware model.
	Unit *elec.TanhUnit
	// InputShift right-shifts accumulator values into the unit's
	// fixed-point range before applying tanh.
	InputShift uint
	// OutputScale multiplies the [-1,1] tanh output back into integer
	// range (e.g. 15 for 4-bit activations).
	OutputScale int64
}

// NewTanhActivation builds the layer with a fresh hardware unit.
func NewTanhActivation(label string, fracBits int, inputShift uint, outputScale int64) (*TanhActivation, error) {
	if outputScale < 1 {
		return nil, fmt.Errorf("qnn: output scale must be >= 1")
	}
	u, err := elec.NewTanhUnit(fracBits)
	if err != nil {
		return nil, err
	}
	return &TanhActivation{
		Label:       label,
		Unit:        u,
		InputShift:  inputShift,
		OutputScale: outputScale,
	}, nil
}

// Name implements Layer.
func (a *TanhActivation) Name() string { return a.Label }

// stage implements Layer: every element through the hardware unit,
// rescaled to the integer activation range.
func (a *TanhActivation) stage(_ context.Context, run *batchRun, _ Dotter, _ int) error {
	if a.Unit == nil {
		return fmt.Errorf("qnn: %s: nil tanh unit", a.Label)
	}
	one := int64(1) << uint(a.Unit.FracBits())
	run.mapElems(func(v int64) int64 {
		// The unit's output is in [-one, one]; rounding toward zero
		// matches the hardware's truncation.
		return a.Unit.Apply(v>>a.InputShift) * a.OutputScale / one
	})
	return nil
}
