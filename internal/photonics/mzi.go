package photonics

import (
	"fmt"

	"pixel/internal/phy"
)

// MZIParams holds the physical and cost parameters of a Mach-Zehnder
// interferometer with 2 mm phase-shifting arms (Section IV-A2).
type MZIParams struct {
	// ArmLength is the phase-shifter arm length [m].
	ArmLength float64
	// ModulationEnergyPerBit is the dynamic energy per bit slot to hold
	// the configured phases [J]; the paper cites 32.4 fJ/bit devices.
	ModulationEnergyPerBit float64
	// InsertionLossDB is the total device insertion loss [dB].
	InsertionLossDB float64
	// Width is the transverse footprint of the device [m]; with the arm
	// length it defines the area.
	Width float64
}

// DefaultMZIParams returns the paper-calibrated MZI parameters.
func DefaultMZIParams() MZIParams {
	return MZIParams{
		ArmLength:              2 * phy.Millimeter,
		ModulationEnergyPerBit: 32.4 * phy.Femtojoule,
		InsertionLossDB:        0.8,
		Width:                  50 * phy.Micrometer,
	}
}

// Validate reports an error for non-physical parameters.
func (p MZIParams) Validate() error {
	if p.ArmLength <= 0 || p.ModulationEnergyPerBit < 0 || p.InsertionLossDB < 0 || p.Width <= 0 {
		return fmt.Errorf("photonics: invalid MZI params %+v", p)
	}
	return nil
}

// Area returns the device footprint [m^2].
func (p MZIParams) Area() float64 {
	return p.ArmLength * p.Width
}

// InterStagePath returns the waveguide length [m] between the output of
// one MZI and the input of the next so that cascaded stages are
// synchronized to the optical bit period (paper Eq. 8/9):
//
//	d_path = c/(n_Si * f_o) - d_MZI
//
// At 10 GHz with 2 mm arms this is ~6.77 mm.
func (p MZIParams) InterStagePath(bitRate float64) (float64, error) {
	if bitRate <= 0 {
		return 0, fmt.Errorf("photonics: bit rate must be positive")
	}
	d := phy.C/(phy.NSilicon*bitRate) - p.ArmLength
	if d < 0 {
		return 0, fmt.Errorf("photonics: MZI arm (%v m) longer than one bit period of flight (%v Hz): cannot synchronize",
			p.ArmLength, bitRate)
	}
	return d, nil
}

// AccumulationDelay returns the total propagation delay through a chain
// of n MZI stages with synchronized inter-stage paths:
//
//	d_tot = n*d_MZI + (n-1)*d_path
//
// This is the paper's accumulation-length formula. Its Eq. 10 worked
// example evaluates it at n = 8 stages for "4-bit optical pulses"
// (two 4-bit operands' pulses in flight) giving ~0.736 ns at 10 GHz.
func (p MZIParams) AccumulationDelay(n int, bitRate float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("photonics: need at least one MZI stage")
	}
	dPath, err := p.InterStagePath(bitRate)
	if err != nil {
		return 0, err
	}
	total := float64(n)*p.ArmLength + float64(n-1)*dPath
	return phy.PropagationDelay(total), nil
}
