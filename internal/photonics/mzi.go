package photonics

import (
	"fmt"
	"math"
	"math/cmplx"

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

// MZI is the functional model: a 2x2 unitary coupler set by the phases of
// its two arms. Its ideal transfer matrix (paper Eq. 1) is
//
//	h = j * e^{jDelta} * | sin(theta)  cos(theta) |
//	                     | cos(theta) -sin(theta) |
//
// with theta = (phi_upper - phi_lower)/2 and Delta = (phi_upper +
// phi_lower)/2. (The paper's Eq. 3 prints Delta with a minus sign — a
// typo; the average phase is what the common-mode term must be for h to
// be unitary and to reproduce the bar/cross states of Figure 1.)
type MZI struct {
	Params   MZIParams
	PhiUpper float64
	PhiLower float64
	// PhaseError adds a differential phase fault [rad] for
	// failure-injection tests.
	PhaseError float64
}

// NewMZI returns an MZI with default parameters in the cross state.
func NewMZI() *MZI {
	m := &MZI{Params: DefaultMZIParams()}
	m.SetCross()
	return m
}

// Theta returns the differential phase (phi_u - phi_l)/2 including any
// injected phase error.
func (m *MZI) Theta() float64 {
	return (m.PhiUpper - m.PhiLower + m.PhaseError) / 2
}

// Delta returns the common-mode phase (phi_u + phi_l)/2.
func (m *MZI) Delta() float64 {
	return (m.PhiUpper + m.PhiLower) / 2
}

// SetBar configures the switch so each input exits the same-side output
// (phi_u = 0, phi_l = pi per Figure 1d).
func (m *MZI) SetBar() { m.PhiUpper, m.PhiLower = 0, math.Pi }

// SetCross configures the switch so inputs exchange outputs
// (phi_u = phi_l = pi/2 per Figure 1e).
func (m *MZI) SetCross() { m.PhiUpper, m.PhiLower = math.Pi/2, math.Pi/2 }

// SetCoupler configures the device as a tunable coupler with the given
// theta in (0, pi/2): both inputs combine toward output o0 with weights
// sin(theta) and cos(theta) (Figure 1f). theta = pi/4 is the balanced
// 50/50 combiner.
func (m *MZI) SetCoupler(theta float64) error {
	if theta <= 0 || theta >= math.Pi/2 {
		return fmt.Errorf("photonics: coupler theta %v out of (0, pi/2)", theta)
	}
	m.PhiUpper, m.PhiLower = theta, -theta
	return nil
}

// Transfer returns the ideal 2x2 transfer matrix (unitary, before
// insertion loss).
func (m *MZI) Transfer() [2][2]complex128 {
	theta, delta := m.Theta(), m.Delta()
	pre := complex(0, 1) * cmplx.Exp(complex(0, delta))
	s := complex(math.Sin(theta), 0)
	c := complex(math.Cos(theta), 0)
	return [2][2]complex128{
		{pre * s, pre * c},
		{pre * c, -pre * s},
	}
}

// Propagate applies the transfer matrix and insertion loss to the two
// input fields, returning the two output fields.
func (m *MZI) Propagate(i0, i1 complex128) (o0, o1 complex128) {
	h := m.Transfer()
	loss := complex(FieldLoss(m.Params.InsertionLossDB), 0)
	o0 = loss * (h[0][0]*i0 + h[0][1]*i1)
	o1 = loss * (h[1][0]*i0 + h[1][1]*i1)
	return o0, o1
}

// EnergyPerSlot returns the dynamic energy charged per bit slot the MZI
// is actively configured.
func (m *MZI) EnergyPerSlot() float64 {
	return m.Params.ModulationEnergyPerBit
}
