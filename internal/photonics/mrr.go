package photonics

import (
	"fmt"
	"math"

	"pixel/internal/phy"
)

// MRRParams holds the physical and cost parameters of one microring
// resonator, defaulting to the devices the paper builds on (7.5 um
// radius, 100 fJ/bit-class modulation, thermally tuned).
type MRRParams struct {
	// Radius of the ring [m].
	Radius float64
	// SwitchEnergyPerBit is the dynamic energy to actuate the ring for
	// one bit time [J]. The paper's device citations demonstrate
	// <100 fJ/bit; its worked OE energy example charges 500 fJ per MRR
	// per bit, which folds in driver and thermal overheads. We default
	// to the worked-example value so the paper's arithmetic reproduces.
	SwitchEnergyPerBit float64
	// TuningPower is the static ring-heater power to hold resonance [W].
	TuningPower float64
	// DropLossDB is the insertion loss of the drop (resonant) path [dB].
	DropLossDB float64
	// ThroughLossDB is the per-ring loss of the off-resonance through
	// path [dB].
	ThroughLossDB float64
	// ExtinctionDB is the suppression of the blocked path [dB]: how much
	// light leaks to the drop port when the ring is off resonance.
	ExtinctionDB float64
}

// DefaultMRRParams returns the paper-calibrated ring parameters.
func DefaultMRRParams() MRRParams {
	return MRRParams{
		Radius:             7.5 * phy.Micrometer,
		SwitchEnergyPerBit: 500 * phy.Femtojoule,
		TuningPower:        20 * phy.Microwatt,
		DropLossDB:         0.5,
		ThroughLossDB:      0.05,
		ExtinctionDB:       20,
	}
}

// Validate reports an error for non-physical parameters.
func (p MRRParams) Validate() error {
	switch {
	case p.Radius <= 0:
		return fmt.Errorf("photonics: MRR radius must be positive")
	case p.SwitchEnergyPerBit < 0 || p.TuningPower < 0:
		return fmt.Errorf("photonics: MRR energies must be non-negative")
	case p.DropLossDB < 0 || p.ThroughLossDB < 0 || p.ExtinctionDB <= 0:
		return fmt.Errorf("photonics: MRR losses must be non-negative (extinction positive)")
	}
	return nil
}

// SPathLength returns the length of the S-shaped path a resonant signal
// travels through a cascaded double-MRR filter: two half circumferences,
// i.e. one full circumference 2*pi*r (paper Section IV-A2).
func (p MRRParams) SPathLength() float64 {
	return 2 * math.Pi * p.Radius
}

// SPathDelay returns the propagation delay through the double-ring
// resonant path (paper Eq. 7: 0.547 ps for r = 7.5 um).
func (p MRRParams) SPathDelay() float64 {
	return phy.PropagationDelay(p.SPathLength())
}

// RingArea returns the layout footprint of a single ring including tuning
// and drive overhead: a square of side 2r plus 30% overhead.
func (p MRRParams) RingArea() float64 {
	side := 2 * p.Radius
	return 1.3 * side * side
}

// DoubleMRRFilter is the cascaded double microring of Figure 1: a 2x2
// optical switch for its resonant wavelength, used as the optical AND
// stage. When the filter is actuated (Von, synapse bit = 1) the resonant
// wavelength couples from input I0 across both rings to output O1
// (cross); when idle (Voff, synapse bit = 0) the wavelength continues on
// its input waveguide to O0 (bar) and only extinction-level leakage
// reaches O1.
type DoubleMRRFilter struct {
	Params MRRParams
	// Channel is the WDM channel index this filter is tuned to.
	Channel int
	// On is the actuation state (the synapse bit).
	On bool
	// Detuned injects a thermal-drift fault: a detuned ring neither
	// couples its channel cleanly nor passes it cleanly. Used by the
	// failure-injection tests.
	Detuned bool
}

// NewDoubleMRRFilter returns a filter tuned to the given channel with
// default parameters.
func NewDoubleMRRFilter(channel int) *DoubleMRRFilter {
	return &DoubleMRRFilter{Params: DefaultMRRParams(), Channel: channel}
}

// CrossField returns the field amplitude factor from input I0 to output
// O1 (the AND output) for a signal on the given channel.
func (f *DoubleMRRFilter) CrossField(channel int) float64 {
	if channel != f.Channel {
		// Other wavelengths never resonate; only leakage crosses.
		return FieldLoss(f.Params.ExtinctionDB)
	}
	switch {
	case f.Detuned:
		// A drifted ring couples a fraction of the power: model as
		// 3 dB worse than the nominal drop path, which corrupts
		// amplitude-coded values downstream.
		return FieldLoss(f.Params.DropLossDB + 3)
	case f.On:
		return FieldLoss(f.Params.DropLossDB)
	default:
		return FieldLoss(f.Params.ExtinctionDB)
	}
}

// BarField returns the field amplitude factor from input I0 to output O0
// (the continue-on path) for a signal on the given channel.
func (f *DoubleMRRFilter) BarField(channel int) float64 {
	if channel != f.Channel {
		return FieldLoss(2 * f.Params.ThroughLossDB) // passes both rings
	}
	switch {
	case f.Detuned:
		return FieldLoss(2*f.Params.ThroughLossDB + 3)
	case f.On:
		// Resonant light has been dropped; only extinction remains.
		return FieldLoss(f.Params.ExtinctionDB)
	default:
		return FieldLoss(2 * f.Params.ThroughLossDB)
	}
}

// AND computes the logical AND the filter implements for its resonant
// channel: output power at O1 is (input power) x (cross transmission)^2.
// The boolean result applies standard OOK slicing: the decision
// threshold is half the nominal "one" level (the input power through the
// drop path), clamped below by the photodetector sensitivity.
func (f *DoubleMRRFilter) AND(inputPower float64, pd Photodetector) bool {
	field := f.CrossField(f.Channel)
	outPower := inputPower * field * field
	drop := FieldLoss(f.Params.DropLossDB)
	threshold := inputPower * drop * drop / 2
	if threshold < pd.Sensitivity {
		threshold = pd.Sensitivity
	}
	return outPower >= threshold
}

// EnergyPerCycle returns the dynamic energy charged to this filter for
// transmitting `bits` bit slots in one cycle: both rings actuate.
func (f *DoubleMRRFilter) EnergyPerCycle(bits int) float64 {
	if bits < 0 {
		panic("photonics: negative bit count")
	}
	return 2 * f.Params.SwitchEnergyPerBit * float64(bits)
}

// Delay returns the worst-case propagation delay through the filter: the
// resonant S-path (cross) is longer than the through path.
func (f *DoubleMRRFilter) Delay() float64 {
	return f.Params.SPathDelay()
}
