package omac

import (
	"fmt"
	"math"

	"pixel/internal/optsim"
	"pixel/internal/photonics"
)

// OOUnit is the all-optical MAC of Figure 2(c): MRR AND stages followed
// by a per-wavelength cascaded-MZI chain that shift-accumulates the
// product optically. Only the final cross-product merge (summing
// already-formed products across wavelengths) is electrical.
type OOUnit struct {
	unit
	conv    *photonics.AmplitudeConverter
	mziOpts optsim.MZIAccumulateOptions
}

// NewOOUnit builds the all-optical unit. The electrical merge adder is
// sized for `terms` products. The functional optical chain runs with the
// lossless idealization (the paper's assumption); the *link budget* and
// laser energy still pay the full MZI insertion-loss stack, which is why
// OO needs more laser power than OE (Table II).
func NewOOUnit(cfg Config, terms int) (*OOUnit, error) {
	core, err := newUnit(cfg, terms, "OO", Config.OOLinkBudget)
	if err != nil {
		return nil, err
	}
	// The amplitude ladder's unit is the single-pulse power at the
	// detector under the lossless-chain idealization: launch through
	// the OE-equivalent loss stack (modulator, waveguide, rings).
	unitPower := photonics.LinkBudget{
		LaserPowerPerWavelength: core.budget.LaserPowerPerWavelength,
		LossesDB:                cfg.pathLossDB(),
	}.ReceivedPower()
	conv, err := photonics.NewAmplitudeConverter(unitPower, cfg.Bits)
	if err != nil {
		return nil, fmt.Errorf("omac: OO amplitude ladder: %w", err)
	}
	conv.Coherent = true
	return &OOUnit{
		unit: core,
		conv: conv,
		mziOpts: optsim.MZIAccumulateOptions{
			Params:  cfg.MZI,
			BitRate: cfg.BitRate,
		},
	}, nil
}

// InjectStageSkew adds a per-stage timing fault [s] to the MZI chain —
// the failure-injection hook for mis-cut inter-stage waveguides.
func (u *OOUnit) InjectStageSkew(dt float64) { u.mziOpts.StageSkewError = dt }

// Multiply computes neuron*synapse through the all-optical datapath in a
// single transmission: the neuron word is fired once per synapse-bit
// MRR AND stage, most-significant bit first (stage 0 accumulates the
// most delay, hence the highest positional weight), each stage gates it
// with its bit, the MZI chain combines the gated trains with one-slot
// staggering so the product's digit convolution appears at the output,
// and the amplitude ladder reads the product out.
func (u *OOUnit) Multiply(neuron, synapse uint64, led *optsim.Ledger) (uint64, error) {
	if neuron > u.mask || synapse > u.mask {
		return 0, fmt.Errorf("omac: operand exceeds %d-bit range", u.cfg.Bits)
	}
	bits := u.cfg.Bits
	u.cfg.laserEnergy(u.budget.LaserPowerPerWavelength, bits*bits, led)
	inputs := make([]*optsim.Signal, bits)
	for k := range inputs {
		filter := photonics.DoubleMRRFilter{Params: u.cfg.MRR, Channel: sigChannel, On: (synapse>>uint(bits-1-k))&1 == 1}
		_, cross := optsim.ANDFilter(u.send(neuron, sigChannel, led), &filter, led)
		// Functional idealization: normalize the surviving pulses to
		// unit field so coherent sums land on the ladder's rungs.
		inputs[k] = normalizePulses(cross, u.conv.UnitPower)
	}
	out, err := optsim.MZIAccumulate(inputs, u.mziOpts, led)
	if err != nil {
		return 0, fmt.Errorf("omac: MZI chain: %w", err)
	}
	digits, err := optsim.DetectAmplitude(out, u.conv, led)
	if err != nil {
		return 0, fmt.Errorf("omac: amplitude detection: %w", err)
	}
	v, err := optsim.WeightedValue(digits)
	if err != nil {
		return 0, err
	}
	return uint64(v), nil
}

// normalizePulses snaps every non-dark slot to exactly the unit field
// amplitude, keeping dark slots dark. It models the ideal (lossless,
// perfectly levelled) pulse regeneration the paper assumes between the
// AND stage and the accumulation chain.
func normalizePulses(s *optsim.Signal, unitPower float64) *optsim.Signal {
	out := s.Clone()
	unitField := complex(math.Sqrt(unitPower), 0)
	for i := range out.Amps {
		if s.Power(i) >= unitPower/4 {
			out.Amps[i] = unitField
		} else {
			out.Amps[i] = 0
		}
	}
	return out
}

// DotProduct computes the inner product through the all-optical
// datapath: per-wavelength products form optically; the merge across
// wavelengths is the one electrical step the OO design keeps.
func (u *OOUnit) DotProduct(neurons, synapses []uint64, led *optsim.Ledger) (uint64, error) {
	return u.dot(u.Multiply, neurons, synapses, led)
}
