// Package omac implements the paper's Optical Multiply-and-Accumulate
// units as *functional* datapaths over the optical circuit simulator:
//
//   - OEUnit — the hybrid design of Figure 2(b): the bitwise AND happens
//     optically (a double-MRR filter gates the neuron pulse train with
//     one synapse bit per cycle), then the gated word is detected, and
//     the shift-accumulate runs electrically (barrel shifter + CLA),
//     exactly as in the Stripes methodology.
//   - OOUnit — the all-optical design of Figure 2(c): every synapse bit
//     has its own MRR AND stage, and a chain of cascaded MZIs with
//     bit-period-matched inter-stage waveguides delays-and-combines the
//     AND outputs so the full product appears as an amplitude- and
//     position-coded pulse train, digitised by a current-comparator
//     ladder.
//
// The two designs differ only in how one product is formed, so both
// units embed one core (configuration, link budget, transmitter, link
// and the electrical merge adder) that owns everything else: the lane
// loop of a dot product, the Figure 2 window and the signed
// offset-binary correction. Each unit contributes its product step:
// OEUnit.gate, one Stripes cycle, and OOUnit.product, one MZI-chain
// product.
//
// Ensemble and OOEnsemble run the Figure 2 window at the WDM-bus level
// (multiple-write-single-read), each on a unit of its design sized for
// L^2 terms: the bus broadcasts every word once, and the unit's product
// step runs on the broadcast signal.
//
// Both units charge every energy category (mul, add, o/e, comm, laser)
// and the path latency to an optsim.Ledger while they compute, and both
// are proven bit-exact against the electrical Stripes engine of package
// bitserial.
package omac

import (
	"fmt"

	"pixel/internal/bitserial"
	"pixel/internal/elec"
	"pixel/internal/optsim"
	"pixel/internal/photonics"
	"pixel/internal/phy"
)

// Config describes one OMAC's operating point.
type Config struct {
	// Lanes is the number of wavelengths (== input-neuron lanes), the
	// paper's L.
	Lanes int
	// Bits is the operand precision / bits per lane, the paper's p.
	Bits int
	// BitRate is the optical line rate [Hz]; the paper runs 10 GHz.
	BitRate float64
	// LaunchPower is the per-wavelength optical power at the modulator
	// [W]. Zero means "derive from the link budget" (recommended).
	LaunchPower float64
	// LinkLength is the on-chip photonic path length from the firing
	// OMAC to the receiving filter bank [m].
	LinkLength float64
	// MarginDB is the link-budget margin [dB].
	MarginDB float64

	Tech elec.Tech
	MRR  photonics.MRRParams
	MZI  photonics.MZIParams
	PD   photonics.Photodetector
	// Laser's wall-plug efficiency is taken from this template; its
	// wavelength count and power are derived per config.
	Laser photonics.Laser
}

// DefaultConfig returns the paper's operating point for the given lane
// count and precision: 10 GHz optics, 1 GHz electronics, 2 mm on-chip
// link, 3 dB margin, and launch power derived from the link budget.
func DefaultConfig(lanes, bits int) Config {
	return Config{
		Lanes:      lanes,
		Bits:       bits,
		BitRate:    10 * phy.Gigahertz,
		LinkLength: 2 * phy.Millimeter,
		MarginDB:   3,
		Tech:       elec.Bulk22LVT(),
		MRR:        photonics.DefaultMRRParams(),
		MZI:        photonics.DefaultMZIParams(),
		PD:         photonics.DefaultPhotodetector(),
		Laser:      photonics.DefaultLaser(lanes, phy.Milliwatt),
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Lanes < 1 || c.Lanes > 64:
		return fmt.Errorf("omac: lanes %d out of range [1,64]", c.Lanes)
	case c.Bits < 1 || c.Bits > 24:
		return fmt.Errorf("omac: bits %d out of range [1,24]", c.Bits)
	case c.BitRate <= 0:
		return fmt.Errorf("omac: bit rate must be positive")
	case c.LinkLength < 0 || c.MarginDB < 0 || c.LaunchPower < 0:
		return fmt.Errorf("omac: negative link parameter")
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if err := c.MRR.Validate(); err != nil {
		return err
	}
	if err := c.MZI.Validate(); err != nil {
		return err
	}
	return c.PD.Validate()
}

// Period returns the optical bit-slot duration [s].
func (c Config) Period() float64 { return 1 / c.BitRate }

// unit is the core both optical MACs embed: everything but the product
// step.
type unit struct {
	cfg      Config
	budget   photonics.LinkBudget
	mod      *optsim.Modulator
	wg       photonics.Waveguide
	adder    *elec.CLAAdder
	accWidth int
	mask     uint64
	// codec is the signed path's offset codec, or nil with codecErr
	// when the precision has no signed range (1 bit).
	codec    *bitserial.OffsetCodec
	codecErr error
}

// newUnit validates cfg, checks the design's link budget (budgetFn) and
// sizes the electrical adder for `terms` products.
func newUnit(cfg Config, terms int, design string, budgetFn func(Config) photonics.LinkBudget) (unit, error) {
	if err := cfg.Validate(); err != nil {
		return unit{}, err
	}
	if terms < 1 {
		return unit{}, fmt.Errorf("omac: terms must be >= 1")
	}
	budget := budgetFn(cfg)
	if err := budget.Check(); err != nil {
		return unit{}, fmt.Errorf("omac: %s link budget: %w", design, err)
	}
	accWidth := elec.AccumulatorWidth(cfg.Bits, terms)
	adder, err := elec.NewCLAAdder(accWidth)
	if err != nil {
		return unit{}, err
	}
	codec, codecErr := bitserial.NewOffsetCodec(cfg.Bits)
	return unit{
		cfg:      cfg,
		budget:   budget,
		mod:      optsim.NewModulator(budget.LaserPowerPerWavelength, cfg.Period()),
		wg:       photonics.DefaultWaveguide(cfg.LinkLength),
		adder:    adder,
		accWidth: accWidth,
		mask:     (uint64(1) << uint(cfg.Bits)) - 1,
		codec:    codec,
		codecErr: codecErr,
	}, nil
}

// send fires a word on wavelength ch and runs it down the photonic link
// to the filter bank.
func (u *unit) send(word uint64, ch int, led *optsim.Ledger) *optsim.Signal {
	sig := u.mod.Modulate(wordBitsLSB(word, u.cfg.Bits), ch, led)
	return optsim.WaveguideRun(sig, u.wg, led)
}

// multiplier forms one product through a unit's datapath.
type multiplier func(neuron, synapse uint64, led *optsim.Ledger) (uint64, error)

// dot computes an inner product one lane at a time through mul. Lanes
// ride distinct wavelengths in hardware; the functional result is
// identical, so lanes run sequentially here while energy is charged for
// all of them. The electrical CLA merges the products.
func (u *unit) dot(mul multiplier, neurons, synapses []uint64, led *optsim.Ledger) (uint64, error) {
	if len(neurons) != len(synapses) {
		return 0, fmt.Errorf("omac: vector lengths differ (%d vs %d)", len(neurons), len(synapses))
	}
	merge := elec.CLA(u.accWidth).Energy(u.cfg.Tech)
	var acc uint64
	for i := range neurons {
		p, err := mul(neurons[i], synapses[i], led)
		if err != nil {
			return 0, fmt.Errorf("omac: lane %d: %w", i, err)
		}
		acc, _ = u.adder.Add(acc, p, false)
		led.Charge(optsim.CatAdd, merge)
	}
	return acc, nil
}

// window computes the paper's Figure 2 window (inputs[lane][element],
// synapses[filter][lane][element]) one lane dot product at a time
// through mul, and returns one raw accumulation per filter.
func (u *unit) window(mul multiplier, inputs [][]uint64, synapses [][][]uint64, led *optsim.Ledger) ([]uint64, error) {
	out := make([]uint64, len(synapses))
	for k, filter := range synapses {
		if len(filter) != len(inputs) {
			return nil, fmt.Errorf("omac: filter %d has %d lanes, inputs have %d", k, len(filter), len(inputs))
		}
		var acc uint64
		for lane := range filter {
			v, err := u.dot(mul, inputs[lane], filter[lane], led)
			if err != nil {
				return nil, fmt.Errorf("omac: filter %d lane %d: %w", k, lane, err)
			}
			acc, _ = u.adder.Add(acc, v, false)
		}
		out[k] = acc
	}
	return out, nil
}

// pathLossDB returns the optical loss stack [dB] from modulator to
// detector, excluding the MZI accumulation chain (OE path).
func (c Config) pathLossDB() map[string]float64 {
	wg := photonics.DefaultWaveguide(c.LinkLength)
	return map[string]float64{
		"modulator":    1.0,
		"waveguide":    wg.LossDB(),
		"ring-passbys": 2 * c.MRR.ThroughLossDB * float64(c.Lanes),
		"mrr-drop":     c.MRR.DropLossDB,
	}
}

// ooExtraLossDB returns the additional loss [dB] the OO path pays
// through its MZI accumulation chain (worst-case: the pulse entering at
// the first stage traverses every MZI).
func (c Config) ooExtraLossDB() float64 {
	return float64(c.Bits) * c.MZI.InsertionLossDB
}

// OELinkBudget returns the link budget of the OE optical path using the
// configured or derived launch power. The OOK slicer needs the "one"
// level at 2x the detector sensitivity, folded into the margin.
func (c Config) OELinkBudget() photonics.LinkBudget {
	b := photonics.LinkBudget{
		LossesDB: c.pathLossDB(),
		Detector: c.PD,
		MarginDB: c.MarginDB + 3, // +3 dB: threshold sits at half the one level
	}
	b.LaserPowerPerWavelength = c.LaunchPower
	if b.LaserPowerPerWavelength == 0 {
		// 1% headroom over the exact requirement so the derived budget
		// closes despite dB round-trip rounding.
		b.LaserPowerPerWavelength = 1.01 * b.RequiredLaserPower()
	}
	return b
}

// OOLinkBudget returns the link budget of the OO optical path: the OE
// stack plus the MZI chain insertion loss plus the amplitude-resolution
// requirement (the ladder's unit spacing needs 6 dB over sensitivity).
func (c Config) OOLinkBudget() photonics.LinkBudget {
	losses := c.pathLossDB()
	losses["mzi-chain"] = c.ooExtraLossDB()
	b := photonics.LinkBudget{
		LossesDB: losses,
		Detector: c.PD,
		MarginDB: c.MarginDB + 6, // amplitude ladder resolution
	}
	b.LaserPowerPerWavelength = c.LaunchPower
	if b.LaserPowerPerWavelength == 0 {
		b.LaserPowerPerWavelength = 1.01 * b.RequiredLaserPower()
	}
	return b
}

// laserEnergy charges the wall-plug laser energy for `slots` bit slots
// at the given per-wavelength launch power.
func (c Config) laserEnergy(launch float64, slots int, led *optsim.Ledger) {
	opticalEnergy := launch * float64(slots) * c.Period()
	led.Charge(optsim.CatLaser, opticalEnergy/c.Laser.WallPlugEfficiency)
}

// wordBitsLSB returns the LSB-first bit train of a value.
func wordBitsLSB(v uint64, bits int) []int {
	out := make([]int, bits)
	for i := 0; i < bits; i++ {
		out[i] = int((v >> uint(i)) & 1)
	}
	return out
}
