package optsim

import (
	"fmt"
	"math"

	"pixel/internal/photonics"
)

// Energy categories used by the Ledger. They match the component
// breakdown the paper reports in Figure 5 and Table II.
const (
	CatMul   = "mul"   // multiplication (MRR AND array / electrical AND)
	CatAdd   = "add"   // accumulation (CLA+shifter / MZI chain)
	CatAct   = "act"   // activation function
	CatOE    = "o/e"   // optical-to-electrical conversion
	CatComm  = "comm"  // data movement (electrical or photonic link)
	CatLaser = "laser" // laser wall-plug energy
)

// Ledger accumulates energy by category and tracks the critical-path
// latency of a datapath as elements are applied. The same functional
// simulation that computes values therefore also produces the numbers
// the architecture model reports.
type Ledger struct {
	energy  map[string]float64
	latency float64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{energy: make(map[string]float64)}
}

// Charge adds energy [J] to a category.
func (l *Ledger) Charge(category string, joules float64) {
	if l == nil {
		return
	}
	if joules < 0 {
		panic("optsim: negative energy charge")
	}
	l.energy[category] += joules
}

// AddLatency extends the critical path by dt [s].
func (l *Ledger) AddLatency(dt float64) {
	if l == nil {
		return
	}
	if dt < 0 {
		panic("optsim: negative latency")
	}
	l.latency += dt
}

// Energy returns the accumulated energy [J] in a category.
func (l *Ledger) Energy(category string) float64 {
	if l == nil {
		return 0
	}
	return l.energy[category]
}

// Latency returns the accumulated critical-path latency [s].
func (l *Ledger) Latency() float64 {
	if l == nil {
		return 0
	}
	return l.latency
}

// Breakdown returns a copy of the per-category energies.
func (l *Ledger) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(l.energy))
	for k, v := range l.energy {
		out[k] = v
	}
	return out
}

// Modulator is an MRR-based electro-optic modulator producing OOK pulse
// trains from bits.
type Modulator struct {
	Params photonics.MRRParams
	// LaunchPower is the optical "one" level produced [W].
	LaunchPower float64
	// Period is the bit-slot duration [s].
	Period float64
}

// NewModulator returns a modulator with default ring parameters.
func NewModulator(launchPower, period float64) *Modulator {
	return &Modulator{
		Params:      photonics.DefaultMRRParams(),
		LaunchPower: launchPower,
		Period:      period,
	}
}

// Modulate produces the OOK train for bits on the given channel,
// charging modulation energy to CatComm (the E/O front end is part of
// bringing data in) on the ledger.
func (m *Modulator) Modulate(bits []int, channel int, led *Ledger) *Signal {
	led.Charge(CatComm, m.Params.SwitchEnergyPerBit*float64(len(bits)))
	return NewOOK(bits, m.LaunchPower, m.Period, channel)
}

// WaveguideRun propagates a signal along a waveguide: applies the
// propagation loss, shifts by the whole number of bit slots the flight
// time covers, and accumulates the sub-slot remainder as skew.
func WaveguideRun(s *Signal, w photonics.Waveguide, led *Ledger) *Signal {
	delay := w.Delay()
	slots := int(delay / s.Period)
	residual := delay - float64(slots)*s.Period
	out := s.DelaySlots(slots).AddSkew(residual)
	out.Scale(complex(w.FieldTransmission(), 0))
	led.AddLatency(delay)
	return out
}

// ANDFilter applies a double-MRR filter to a signal: the filter's
// resonant behaviour splits the train into the bar (continue) and cross
// (drop/AND output) paths. Energy for actuating the rings over the
// train's slots is charged to CatMul.
func ANDFilter(s *Signal, f *photonics.DoubleMRRFilter, led *Ledger) (bar, cross *Signal) {
	led.Charge(CatMul, f.EnergyPerCycle(s.Slots())) // both rings, per slot
	led.AddLatency(f.Delay())
	bar = s.Clone().Scale(complex(f.BarField(s.Channel), 0))
	cross = s.Clone().Scale(complex(f.CrossField(s.Channel), 0))
	return bar, cross
}

// MZIAccumulateOptions configures an MZI accumulation chain.
type MZIAccumulateOptions struct {
	Params photonics.MZIParams
	// BitRate is the optical line rate [Hz] the inter-stage paths are
	// cut for.
	BitRate float64
	// StageSkewError injects a per-stage timing fault [s] (mis-cut
	// inter-stage waveguide) for failure testing.
	StageSkewError float64
}

// MZIAccumulate implements the OO design's per-wavelength cascaded-MZI
// shift-accumulate (Figure 2c): stage k's running sum is delayed by one
// bit slot and coherently combined with input k+1. With inputs ordered
// most-significant first, input k is effectively delayed by (n-1-k)
// slots, so slot t of the output carries the coherent sum of all bits of
// positional weight 2^t — the digit convolution of the product.
//
// The chain is the paper's lossless idealization: a stage passes its
// sum on unattenuated, and the link budget pays the insertion loss
// instead. Each combiner accepts a quarter bit period of sub-slot
// misalignment. Per-stage MZI actuation energy is charged to CatAdd;
// the chain's propagation delay (paper Eq. 10) is added to the ledger's
// latency.
func MZIAccumulate(inputs []*Signal, opt MZIAccumulateOptions, led *Ledger) (*Signal, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("optsim: MZIAccumulate needs at least one input")
	}
	if opt.BitRate <= 0 {
		return nil, fmt.Errorf("optsim: MZIAccumulate needs a positive bit rate")
	}
	if _, err := opt.Params.InterStagePath(opt.BitRate); err != nil {
		return nil, err
	}

	tol := skewTolerance(inputs[0])
	acc := inputs[0].Clone()
	for k := 1; k < len(inputs); k++ {
		// The running sum is delayed one bit period by the matched
		// inter-stage path; a mis-cut path shows up as skew.
		delayed := acc.DelaySlots(1).AddSkew(opt.StageSkewError)
		var err error
		if acc, err = Combine(delayed, inputs[k], tol); err != nil {
			return nil, fmt.Errorf("optsim: MZI stage %d: %w", k, err)
		}
		led.Charge(CatAdd, opt.Params.ModulationEnergyPerBit*float64(acc.Slots()))
	}
	if d, err := opt.Params.AccumulationDelay(len(inputs), opt.BitRate); err == nil {
		led.AddLatency(d)
	}
	return acc, nil
}

// skewTolerance is the sub-slot misalignment [s] an MZI combiner
// accepts: a quarter of the signal's bit period.
func skewTolerance(s *Signal) float64 { return s.Period / 4 }

// DetectOOK converts a pulse train to bits through the simple
// photodiode + shift-register converter, charging CatOE.
func DetectOOK(s *Signal, conv *photonics.OEConverter, led *Ledger) []int {
	led.Charge(CatOE, conv.Energy(s.Slots()))
	return conv.Slice(s.Powers())
}

// DetectAmplitude converts an amplitude-coded train to integer levels
// through the comparator-ladder converter, charging CatOE. It returns an
// error if any slot saturates the ladder.
func DetectAmplitude(s *Signal, conv *photonics.AmplitudeConverter, led *Ledger) ([]int, error) {
	led.Charge(CatOE, conv.Energy(s.Slots()))
	out := make([]int, s.Slots())
	for i := range out {
		lvl, err := conv.ResolveChecked(s.Power(i))
		if err != nil {
			return nil, fmt.Errorf("optsim: slot %d: %w", i, err)
		}
		out[i] = lvl
	}
	return out, nil
}

// WeightedValue folds an LSB-first digit train into its integer value:
// sum of digit[t] * 2^t. It errors when the value would overflow int64.
func WeightedValue(digits []int) (int64, error) {
	var total int64
	for t, d := range digits {
		if d < 0 {
			return 0, fmt.Errorf("optsim: negative digit %d at slot %d", d, t)
		}
		if t >= 62 && d > 0 {
			return 0, fmt.Errorf("optsim: digit train too long for int64 (slot %d)", t)
		}
		term := int64(d) << uint(t)
		if term < 0 || math.MaxInt64-term < total {
			return 0, fmt.Errorf("optsim: weighted value overflows int64 at slot %d", t)
		}
		total += term
	}
	return total, nil
}
