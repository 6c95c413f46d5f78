package omac

import (
	"fmt"

	"pixel/internal/elec"
	"pixel/internal/optsim"
	"pixel/internal/photonics"
)

// OEUnit is the hybrid optical-electrical MAC of Figure 2(b): optical
// AND through MRR filters, electrical shift-accumulate.
type OEUnit struct {
	unit
	conv    *photonics.OEConverter
	shifter *elec.BarrelShifterFunc
	// accGates is the shift-accumulate's gate count, priced once and
	// charged per cycle.
	accGates elec.GateCount
}

// NewOEUnit builds the hybrid unit for the given configuration. The
// accumulator is sized for `terms` products (the dot-product length;
// 1 for a bare multiply).
func NewOEUnit(cfg Config, terms int) (*OEUnit, error) {
	core, err := newUnit(cfg, terms, "OE", Config.OELinkBudget)
	if err != nil {
		return nil, err
	}
	// Expected "one" level at the detector: launch power through the
	// full loss stack.
	conv, err := photonics.NewOEConverter(core.budget.ReceivedPower())
	if err != nil {
		return nil, fmt.Errorf("omac: OE converter: %w", err)
	}
	shifter, err := elec.NewBarrelShifter(core.accWidth)
	if err != nil {
		return nil, err
	}
	w := core.accWidth
	return &OEUnit{
		unit:     core,
		conv:     conv,
		shifter:  shifter,
		accGates: elec.CLA(w).Chain(elec.BarrelShifter(w)).Add(elec.Register(w)),
	}, nil
}

// Multiply computes neuron*synapse through the hybrid datapath: Bits()
// Stripes cycles, each transmitting the full neuron word optically
// against one synapse bit (LSB first). The bit drives the double-MRR
// AND filter, the photodiode and shift register recover the gated word
// (O/E), and the electrical EP unit shift-adds it into the product.
func (u *OEUnit) Multiply(neuron, synapse uint64, led *optsim.Ledger) (uint64, error) {
	if neuron > u.mask || synapse > u.mask {
		return 0, fmt.Errorf("omac: operand exceeds %d-bit range", u.cfg.Bits)
	}
	bits := u.cfg.Bits
	var acc uint64
	for j := 0; j < bits; j++ {
		// E/O: the neuron word is fired on its wavelength.
		sig := u.send(neuron, sigChannel, led)
		u.cfg.laserEnergy(u.budget.LaserPowerPerWavelength, bits, led)
		filter := photonics.DoubleMRRFilter{Params: u.cfg.MRR, Channel: sigChannel, On: (synapse>>uint(j))&1 == 1}
		_, cross := optsim.ANDFilter(sig, &filter, led)
		var gated uint64
		for t, b := range optsim.DetectOOK(cross, u.conv, led) {
			if b == 1 && t < bits {
				gated |= 1 << uint(t)
			}
		}
		acc, _ = u.adder.Add(acc, u.shifter.ShiftLeft(gated, j), false)
		led.Charge(optsim.CatAdd, u.accGates.Energy(u.cfg.Tech))
		led.AddLatency(u.cfg.Tech.ClockPeriod())
	}
	return acc, nil
}

// sigChannel is the wavelength channel index the functional
// simulations fire on.
const sigChannel = 0

// DotProduct computes the inner product of two vectors through the
// hybrid datapath.
func (u *OEUnit) DotProduct(neurons, synapses []uint64, led *optsim.Ledger) (uint64, error) {
	return u.dot(u.Multiply, neurons, synapses, led)
}
