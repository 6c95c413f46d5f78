// Package thermal models the microring resonators' thermal sensitivity
// and the runtime tuning loop that keeps them on channel — the concern
// the paper raises in Section II-A1 ("due to thermal sensitivity, ring
// heaters are used to ensure that the wavelength drift is avoided")
// alongside its cited mitigations (athermal design, runtime thermal
// optimization).
//
// The model is deliberately simple but physical: silicon's thermo-optic
// coefficient shifts a ring's resonance by ~0.08 nm/K; a WDM grid
// spaces channels ~0.8 nm apart (100 GHz at 1550 nm); a ring is usable
// while its residual detuning stays within a fraction of the channel
// spacing; an integrating controller drives a resistive heater to null
// the drift, paying mW-class power per kelvin of correction.
package thermal

import (
	"fmt"
	"math"

	"pixel/internal/phy"
)

// RingModel holds the thermal constants of one microring.
type RingModel struct {
	// DriftPerKelvin is the resonance shift per kelvin [m/K];
	// ~0.08 nm/K for silicon rings.
	DriftPerKelvin float64
	// ChannelSpacing is the WDM grid pitch [m]; 0.8 nm = 100 GHz.
	ChannelSpacing float64
	// LockFraction is the fraction of the channel spacing within which
	// the ring still switches its channel cleanly.
	LockFraction float64
	// HeaterPowerPerKelvin is the heater power to raise the ring one
	// kelvin [W/K].
	HeaterPowerPerKelvin float64
	// MaxHeaterPower bounds the heater [W].
	MaxHeaterPower float64
}

// DefaultRingModel returns literature-class constants.
func DefaultRingModel() RingModel {
	return RingModel{
		DriftPerKelvin:       0.08 * phy.Nanometer,
		ChannelSpacing:       0.8 * phy.Nanometer,
		LockFraction:         0.25,
		HeaterPowerPerKelvin: 0.25 * phy.Milliwatt,
		MaxHeaterPower:       10 * phy.Milliwatt,
	}
}

// Validate reports an error for non-physical constants.
func (m RingModel) Validate() error {
	switch {
	case m.DriftPerKelvin <= 0 || m.ChannelSpacing <= 0:
		return fmt.Errorf("thermal: drift and spacing must be positive")
	case m.LockFraction <= 0 || m.LockFraction >= 1:
		return fmt.Errorf("thermal: lock fraction %v out of (0,1)", m.LockFraction)
	case m.HeaterPowerPerKelvin <= 0 || m.MaxHeaterPower <= 0:
		return fmt.Errorf("thermal: heater constants must be positive")
	}
	return nil
}

// LockToleranceKelvin returns the ambient error [K] a ring tolerates
// without control before it detunes.
func (m RingModel) LockToleranceKelvin() float64 {
	return m.LockFraction * m.ChannelSpacing / m.DriftPerKelvin
}

// Ring is one thermally-sensitive ring under closed-loop control. The
// heater can only ADD heat, so the ring is fabricated red-shifted
// (Bias kelvin below its channel) and the controller holds it at the
// bias point; ambient swings in either direction are then correctable
// while bias-ambient stays within the heater range.
type Ring struct {
	Model RingModel
	// Bias is the built-in fabrication offset [K] the heater must
	// supply at nominal ambient.
	Bias float64
	// heaterK is the current heater contribution [K].
	heaterK float64
	// gain is the integral gain of the control loop (fraction of the
	// observed error corrected per step).
	gain float64
}

// NewRing returns a controlled ring with the given fabrication bias.
func NewRing(model RingModel, biasKelvin float64) (*Ring, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if biasKelvin < 0 {
		return nil, fmt.Errorf("thermal: bias must be non-negative")
	}
	return &Ring{Model: model, Bias: biasKelvin, heaterK: biasKelvin, gain: 0.5}, nil
}

// DetuningKelvin returns the net temperature error [K] for the given
// ambient offset from nominal: ambient + heater - bias.
func (r *Ring) DetuningKelvin(ambientOffset float64) float64 {
	return ambientOffset + r.heaterK - r.Bias
}

// Detuning returns the resonance error [m] at the given ambient offset.
func (r *Ring) Detuning(ambientOffset float64) float64 {
	return r.DetuningKelvin(ambientOffset) * r.Model.DriftPerKelvin
}

// Locked reports whether the ring is usable at the ambient offset.
func (r *Ring) Locked(ambientOffset float64) bool {
	return math.Abs(r.Detuning(ambientOffset)) <= r.Model.LockFraction*r.Model.ChannelSpacing
}

// HeaterPower returns the current heater power [W].
func (r *Ring) HeaterPower() float64 {
	return r.heaterK * r.Model.HeaterPowerPerKelvin
}

// Step runs one control iteration against the observed ambient offset
// [K] and returns the residual detuning [K]. The controller corrects a
// fraction of the error per step (integral control), clamped to the
// heater's physical range [0, max].
func (r *Ring) Step(ambientOffset float64) float64 {
	err := r.DetuningKelvin(ambientOffset)
	r.heaterK -= r.gain * err
	if r.heaterK < 0 {
		r.heaterK = 0
	}
	if maxK := r.Model.MaxHeaterPower / r.Model.HeaterPowerPerKelvin; r.heaterK > maxK {
		r.heaterK = maxK
	}
	return r.DetuningKelvin(ambientOffset)
}

// LockTime returns the number of control steps to re-lock after an
// ambient step of the given size [K], or an error if the heater range
// cannot compensate it. maxSteps bounds the simulation.
func (r *Ring) LockTime(ambientStep float64, maxSteps int) (int, error) {
	for i := 0; i < maxSteps; i++ {
		if r.Locked(ambientStep) {
			return i, nil
		}
		r.Step(ambientStep)
	}
	if r.Locked(ambientStep) {
		return maxSteps, nil
	}
	return 0, fmt.Errorf(
		"thermal: cannot re-lock after %+.1f K ambient step (heater at %s of %s): outside compensation range",
		ambientStep, phy.FormatPower(r.HeaterPower()), phy.FormatPower(r.Model.MaxHeaterPower))
}

// BankTuningPower returns the steady-state tuning power [W] of a bank
// of `rings` rings at the given mean ambient offset [K]: each ring
// holds bias - ambient (clamped at zero; negative offsets need more
// heat, positive less).
func BankTuningPower(model RingModel, rings int, biasKelvin, ambientOffset float64) (float64, error) {
	if err := model.Validate(); err != nil {
		return 0, err
	}
	if rings < 0 {
		return 0, fmt.Errorf("thermal: negative ring count")
	}
	hold := biasKelvin - ambientOffset
	if hold < 0 {
		hold = 0
	}
	per := hold * model.HeaterPowerPerKelvin
	if per > model.MaxHeaterPower {
		return 0, fmt.Errorf("thermal: holding %+.1f K exceeds heater range", hold)
	}
	return float64(rings) * per, nil
}
