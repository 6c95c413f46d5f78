// Package photonics models the silicon-photonic devices PIXEL is built
// from: microring resonators (MRRs) and cascaded double-MRR filters,
// Mach-Zehnder interferometers (MZIs), waveguides, on-chip Fabry-Perot
// lasers, germanium photodetectors and the two optical-to-electrical
// converter front ends of the paper.
//
// Each device carries both a *functional* model (how optical field
// amplitudes move through its ports) and a *cost* model (energy per bit,
// static tuning power, area, propagation delay). The functional models
// are composed into circuits by package optsim; the cost models are
// consumed by package arch.
//
// Conventions: optical signals are complex field amplitudes per
// wavelength channel; optical *power* is |amplitude|^2 in watts. Losses
// are kept in dB in the parameter structs (as datasheets quote them) and
// converted to linear field factors on use.
package photonics

import (
	"fmt"
	"math"

	"pixel/internal/phy"
)

// FieldLoss converts a power loss in dB (positive number, e.g. 0.5 for
// "0.5 dB insertion loss") into a multiplicative *field* amplitude factor
// (sqrt of the linear power transmission).
func FieldLoss(db float64) float64 {
	return math.Sqrt(phy.FromDB(-db))
}

// PowerLoss converts a power loss in dB into a linear power transmission
// factor.
func PowerLoss(db float64) float64 {
	return phy.FromDB(-db)
}

// Waveguide models a silicon strip waveguide segment.
type Waveguide struct {
	// Length of the segment [m].
	Length float64
	// PropagationPS is the group delay [s/m]; the paper quotes
	// 10.45 ps/mm for silicon waveguides.
	DelayPerMeter float64
	// LossDBPerMeter is the propagation loss [dB/m]; the paper quotes
	// 1.3 dB/cm.
	LossDBPerMeter float64
	// Pitch is the minimum center-to-center spacing [m]; the paper
	// quotes 5.5 um. Used for area estimates of waveguide bundles.
	Pitch float64
}

// DefaultWaveguide returns a waveguide of the given length with the
// paper's silicon parameters (10.45 ps/mm, 1.3 dB/cm, 5.5 um pitch).
func DefaultWaveguide(length float64) Waveguide {
	return Waveguide{
		Length:         length,
		DelayPerMeter:  10.45 * phy.Picosecond / phy.Millimeter,
		LossDBPerMeter: 1.3 / phy.Centimeter,
		Pitch:          5.5 * phy.Micrometer,
	}
}

// Delay returns the propagation delay of the segment [s].
func (w Waveguide) Delay() float64 { return w.Length * w.DelayPerMeter }

// LossDB returns the total propagation loss of the segment [dB].
func (w Waveguide) LossDB() float64 { return w.Length * w.LossDBPerMeter }

// FieldTransmission returns the field amplitude factor of the segment.
func (w Waveguide) FieldTransmission() float64 { return FieldLoss(w.LossDB()) }

// Area returns the footprint of the routed segment [m^2] assuming the
// standard pitch.
func (w Waveguide) Area() float64 { return w.Length * w.Pitch }

// Laser models an on-chip InP Fabry-Perot comb laser (Section II-A3:
// 50 um x 300 um x 5 um, up to 128 wavelengths per channel).
type Laser struct {
	// Wavelengths is the number of WDM channels the laser emits.
	Wavelengths int
	// PowerPerWavelength is the optical output power per channel [W].
	PowerPerWavelength float64
	// WallPlugEfficiency is optical-out / electrical-in (0..1].
	WallPlugEfficiency float64
	// TurnOnDelay is the time from enable to stable output [s].
	TurnOnDelay float64
	// Footprint is the die area [m^2].
	Footprint float64
}

// DefaultLaser returns the paper's on-chip FP laser: 50x300 um footprint,
// short turn-on delay, 128-wavelength capability.
func DefaultLaser(wavelengths int, powerPerWavelength float64) Laser {
	return Laser{
		Wavelengths:        wavelengths,
		PowerPerWavelength: powerPerWavelength,
		WallPlugEfficiency: 0.10,
		TurnOnDelay:        1 * phy.Nanosecond,
		Footprint:          50 * phy.Micrometer * 300 * phy.Micrometer,
	}
}

// Validate reports an error for non-physical parameters.
func (l Laser) Validate() error {
	switch {
	case l.Wavelengths < 1 || l.Wavelengths > 128:
		return fmt.Errorf("photonics: laser wavelengths %d out of range [1,128]", l.Wavelengths)
	case l.PowerPerWavelength <= 0:
		return fmt.Errorf("photonics: laser power must be positive")
	case l.WallPlugEfficiency <= 0 || l.WallPlugEfficiency > 1:
		return fmt.Errorf("photonics: wall-plug efficiency %v out of (0,1]", l.WallPlugEfficiency)
	case l.TurnOnDelay < 0 || l.Footprint <= 0:
		return fmt.Errorf("photonics: invalid laser timing/area")
	}
	return nil
}

// Photodetector models a germanium-doped photodiode with its TIA
// back end.
type Photodetector struct {
	// Responsivity converts optical power to photocurrent [A/W].
	Responsivity float64
	// Sensitivity is the minimum detectable optical power [W] for the
	// target BER at the line rate.
	Sensitivity float64
	// EnergyPerBit is the receiver (PD + TIA + amplifier) energy [J/bit].
	EnergyPerBit float64
	// Area is the receiver footprint [m^2].
	Area float64
}

// DefaultPhotodetector returns a 10 GHz-class Ge receiver: 1.1 A/W,
// -20 dBm sensitivity, 50 fJ/bit.
func DefaultPhotodetector() Photodetector {
	return Photodetector{
		Responsivity: 1.1,
		Sensitivity:  phy.FromDBm(-20),
		EnergyPerBit: 50 * phy.Femtojoule,
		Area:         20 * phy.SquareMicrometer,
	}
}

// Current returns the photocurrent [A] produced by the given optical
// power [W].
func (p Photodetector) Current(opticalPower float64) float64 {
	if opticalPower <= 0 {
		return 0
	}
	return p.Responsivity * opticalPower
}

// Validate reports an error for non-physical parameters.
func (p Photodetector) Validate() error {
	if p.Responsivity <= 0 || p.Sensitivity <= 0 || p.EnergyPerBit < 0 || p.Area <= 0 {
		return fmt.Errorf("photonics: invalid photodetector %+v", p)
	}
	return nil
}
