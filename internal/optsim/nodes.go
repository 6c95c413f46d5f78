package optsim

import (
	"fmt"

	"pixel/internal/photonics"
)

// Standard Node implementations wrapping the element functions, so
// datapaths can be expressed as netlists.

// SourceNode emits a fixed signal (no inputs, one output).
type SourceNode struct {
	Label  string
	Signal *Signal
}

// Name implements Node.
func (s *SourceNode) Name() string { return "source:" + s.Label }

// Ports implements Node.
func (s *SourceNode) Ports() (int, int) { return 0, 1 }

// Eval implements Node.
func (s *SourceNode) Eval(_ []*Signal, _ *Ledger) ([]*Signal, error) {
	if s.Signal == nil {
		return nil, fmt.Errorf("source %q has no signal", s.Label)
	}
	return []*Signal{s.Signal.Clone()}, nil
}

// FilterNode applies a double-MRR filter (one in; bar and cross out).
type FilterNode struct {
	Label  string
	Filter *photonics.DoubleMRRFilter
}

// Name implements Node.
func (f *FilterNode) Name() string { return "mrr:" + f.Label }

// Ports implements Node.
func (f *FilterNode) Ports() (int, int) { return 1, 2 }

// Eval implements Node.
func (f *FilterNode) Eval(in []*Signal, led *Ledger) ([]*Signal, error) {
	bar, cross := ANDFilter(in[0], f.Filter, led)
	return []*Signal{bar, cross}, nil
}

// DelayNode delays its input by whole bit slots.
type DelayNode struct {
	Label string
	Slots int
}

// Name implements Node.
func (d *DelayNode) Name() string { return "delay:" + d.Label }

// Ports implements Node.
func (d *DelayNode) Ports() (int, int) { return 1, 1 }

// Eval implements Node.
func (d *DelayNode) Eval(in []*Signal, _ *Ledger) ([]*Signal, error) {
	if d.Slots < 0 {
		return nil, fmt.Errorf("delay %q has negative slots", d.Label)
	}
	return []*Signal{in[0].DelaySlots(d.Slots)}, nil
}

// CombinerNode coherently combines two inputs into one output (a tuned
// MZI coupler steering all power to one port), charging per-slot MZI
// energy. Like a stage of MZIAccumulate it is lossless and accepts a
// quarter slot of input skew.
type CombinerNode struct {
	Label string
	// Params prices the stage.
	Params photonics.MZIParams
}

// Name implements Node.
func (m *CombinerNode) Name() string { return "mzi:" + m.Label }

// Ports implements Node.
func (m *CombinerNode) Ports() (int, int) { return 2, 1 }

// Eval implements Node.
func (m *CombinerNode) Eval(in []*Signal, led *Ledger) ([]*Signal, error) {
	out, err := Combine(in[0], in[1], skewTolerance(in[0]))
	if err != nil {
		return nil, err
	}
	led.Charge(CatAdd, m.Params.ModulationEnergyPerBit*float64(out.Slots()))
	return []*Signal{out}, nil
}

// TapNode passes its input through unchanged; useful as a named probe
// point in generated netlists.
type TapNode struct{ Label string }

// Name implements Node.
func (t *TapNode) Name() string { return "tap:" + t.Label }

// Ports implements Node.
func (t *TapNode) Ports() (int, int) { return 1, 1 }

// Eval implements Node.
func (t *TapNode) Eval(in []*Signal, _ *Ledger) ([]*Signal, error) {
	return []*Signal{in[0].Clone()}, nil
}
