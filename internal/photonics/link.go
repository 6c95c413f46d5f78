package photonics

import (
	"fmt"
	"math"
	"sort"

	"pixel/internal/phy"
)

// LinkBudget computes whether an optical path closes: whether the laser
// power per wavelength, after every loss element on the worst-case path,
// still clears the detector sensitivity with the required margin.
type LinkBudget struct {
	// LaserPowerPerWavelength is the per-channel launch power [W].
	LaserPowerPerWavelength float64
	// LossesDB is the itemized loss stack [dB]: coupler, waveguide
	// propagation, ring pass-bys, drop paths, MZI insertion, splitters.
	LossesDB map[string]float64
	// Detector is the receiving photodiode.
	Detector Photodetector
	// MarginDB is the required safety margin [dB].
	MarginDB float64
}

// TotalLossDB returns the summed path loss [dB]. It sums in key order,
// so a budget's loss, and every power derived from it, is the same to
// the last bit on every call.
func (b LinkBudget) TotalLossDB() float64 {
	keys := make([]string, 0, len(b.LossesDB))
	for k := range b.LossesDB {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += b.LossesDB[k]
	}
	return total
}

// ReceivedPower returns the optical power arriving at the detector [W].
func (b LinkBudget) ReceivedPower() float64 {
	return b.LaserPowerPerWavelength * PowerLoss(b.TotalLossDB())
}

// Closes reports whether the link budget closes with margin.
func (b LinkBudget) Closes() bool {
	required := b.Detector.Sensitivity * phy.FromDB(b.MarginDB)
	return b.ReceivedPower() >= required
}

// RequiredLaserPower returns the minimum per-wavelength launch power [W]
// for the budget to close.
func (b LinkBudget) RequiredLaserPower() float64 {
	return b.Detector.Sensitivity * phy.FromDB(b.MarginDB+b.TotalLossDB())
}

// Check returns a descriptive error when the budget does not close.
func (b LinkBudget) Check() error {
	if b.Closes() {
		return nil
	}
	return fmt.Errorf(
		"photonics: link budget does not close: launch %s, path loss %.2f dB, received %s < required %s (sensitivity %s + margin %.1f dB)",
		phy.FormatPower(b.LaserPowerPerWavelength), b.TotalLossDB(),
		phy.FormatPower(b.ReceivedPower()),
		phy.FormatPower(b.Detector.Sensitivity*phy.FromDB(b.MarginDB)),
		phy.FormatPower(b.Detector.Sensitivity), b.MarginDB)
}

// OEConverter is the simple optical-to-electrical converter of the paper
// (Section II-A3, first design): a photodiode thresholding each bit slot
// and a shift register deserializing the pulse train. It recovers binary
// (on-off keyed) data only.
type OEConverter struct {
	Detector Photodetector
	// Threshold is the decision level [W]: slots at or above it are 1.
	Threshold float64
}

// NewOEConverter returns a converter with the decision threshold placed
// at half the expected "one" power (standard OOK slicing).
func NewOEConverter(onePower float64) (*OEConverter, error) {
	pd := DefaultPhotodetector()
	if onePower < pd.Sensitivity {
		return nil, fmt.Errorf("photonics: OOK 'one' level %s below detector sensitivity %s",
			phy.FormatPower(onePower), phy.FormatPower(pd.Sensitivity))
	}
	return &OEConverter{Detector: pd, Threshold: onePower / 2}, nil
}

// Slice converts a pulse-train of optical powers [W] into bits.
func (c *OEConverter) Slice(powers []float64) []int {
	bits := make([]int, len(powers))
	for i, p := range powers {
		if p >= c.Threshold {
			bits[i] = 1
		}
	}
	return bits
}

// Energy returns the conversion energy for n bit slots.
func (c *OEConverter) Energy(n int) float64 {
	return float64(n) * c.Detector.EnergyPerBit
}

// AmplitudeConverter is the second, more complex O/E converter: a
// photodiode feeding a ladder of current comparators that resolves
// multi-level pulse amplitudes into small integers (Section II-A3). The
// OO design needs it because cascaded-MZI accumulation encodes sums in
// optical amplitude.
type AmplitudeConverter struct {
	Detector Photodetector
	// UnitPower is the optical power of a single unit-amplitude pulse
	// [W]; level k nominally arrives as k*UnitPower.
	UnitPower float64
	// Levels is the number of distinguishable levels (0..Levels-1),
	// i.e. the ladder has Levels-1 comparators.
	Levels int
	// NoiseFloor is additive power uncertainty [W] the ladder must
	// tolerate; decision thresholds sit at (k-0.5)*UnitPower.
	NoiseFloor float64
	// Coherent selects the ladder calibration. Pulses that combine on
	// the SAME wavelength (the OO design's per-wavelength MZI chains)
	// add in *field amplitude*, so k coincident unit pulses arrive as
	// power k^2 * UnitPower and the comparator rungs are spaced
	// quadratically. Incoherent combining (distinct wavelengths on a
	// broadband detector) adds in power and uses linear rungs.
	Coherent bool
}

// NewAmplitudeConverter builds a ladder for sums up to maxLevel given the
// unit pulse power. It errors when adjacent levels are separated by less
// than the detector can resolve (unit power below 2x sensitivity) — the
// resolution limit the failure-injection tests exercise.
func NewAmplitudeConverter(unitPower float64, maxLevel int) (*AmplitudeConverter, error) {
	if maxLevel < 1 {
		return nil, fmt.Errorf("photonics: maxLevel must be >= 1")
	}
	pd := DefaultPhotodetector()
	if unitPower < 2*pd.Sensitivity {
		return nil, fmt.Errorf(
			"photonics: amplitude unit %s below resolvable spacing (2x sensitivity = %s): %d-level ladder infeasible",
			phy.FormatPower(unitPower), phy.FormatPower(2*pd.Sensitivity), maxLevel+1)
	}
	return &AmplitudeConverter{
		Detector:  pd,
		UnitPower: unitPower,
		Levels:    maxLevel + 1,
	}, nil
}

// rawLevel converts a slot power to an unclamped fractional level under
// the ladder's calibration.
func (a *AmplitudeConverter) rawLevel(power float64) float64 {
	if power <= 0 {
		return 0
	}
	if a.Coherent {
		return math.Sqrt(power / a.UnitPower)
	}
	return power / a.UnitPower
}

// Resolve converts one slot's optical power into its integer level by
// walking the comparator ladder. Powers beyond the top rung saturate at
// Levels-1 (and are reported as an error by ResolveChecked).
func (a *AmplitudeConverter) Resolve(power float64) int {
	level := int(math.Floor(a.rawLevel(power) + 0.5))
	if level < 0 {
		level = 0
	}
	if level > a.Levels-1 {
		level = a.Levels - 1
	}
	return level
}

// ResolveChecked is Resolve but errors when the power exceeds the top
// comparator rung — a sum larger than the ladder was built for, which in
// hardware would silently saturate and corrupt the accumulation.
func (a *AmplitudeConverter) ResolveChecked(power float64) (int, error) {
	if int(math.Floor(a.rawLevel(power)+0.5)) > a.Levels-1 {
		return a.Levels - 1, fmt.Errorf(
			"photonics: amplitude %.3g W exceeds %d-level ladder (unit %.3g W): saturated",
			power, a.Levels, a.UnitPower)
	}
	return a.Resolve(power), nil
}

// Energy returns the conversion energy for n slots: the ladder fires all
// comparators every slot.
func (a *AmplitudeConverter) Energy(n int) float64 {
	perSlot := a.Detector.EnergyPerBit * (1 + 0.25*float64(a.Levels-1))
	return float64(n) * perSlot
}
