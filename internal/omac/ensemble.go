package omac

import (
	"fmt"

	"pixel/internal/optsim"
)

// Ensemble simulates the full Figure 2 arrangement at the WDM-bus
// level: L OMACs in the multiple-write-single-read discipline. OMAC j
// fires the j-th elements of all L input-neuron lanes on its band of L
// wavelengths (channel j*L+i carries I[i][j]); every OMAC k receives
// the full L^2-channel multiplexed signal and implements filter k, its
// synapse lane i dropping the L wavelengths that carry input lane i.
//
// The point of simulating at this level — beyond the per-pair units —
// is the broadcast economics: each word is modulated and lased ONCE and
// heard by all L filters, so the ensemble's comm and laser energy are
// amortized L ways, exactly the "ease of implementing broadcast"
// advantage the paper claims for photonics.
type Ensemble struct {
	oe *OEUnit
}

// NewEnsemble builds an L-OMAC hybrid (OE) ensemble for the
// configuration; the window it executes has L lanes x L elements per
// filter, so accumulators are sized for L^2 terms.
func NewEnsemble(cfg Config) (*Ensemble, error) {
	u, err := NewOEUnit(cfg, cfg.Lanes*cfg.Lanes)
	if err != nil {
		return nil, err
	}
	return &Ensemble{oe: u}, nil
}

// Window executes one full window on the bus:
//
//	inputs[i][j]      — element j of input-neuron lane i
//	synapses[k][i][j] — filter k's weight against that element
//
// and returns filter k's accumulation sum_{i,j} I[i][j]*S[k][i][j].
// inputs must be L x L and synapses L x L x L for lane count L.
func (e *Ensemble) Window(inputs [][]uint64, synapses [][][]uint64, led *optsim.Ledger) ([]uint64, error) {
	u := e.oe
	if err := u.checkEnsembleWindow(inputs, synapses); err != nil {
		return nil, err
	}
	l, bits := u.cfg.Lanes, u.cfg.Bits
	acc := make([]uint64, l)

	// STR: one synapse bit position per cycle.
	for b := 0; b < bits; b++ {
		bus := u.broadcast(inputs, led)
		u.cfg.laserEnergy(u.budget.LaserPowerPerWavelength, l*l*bits, led)

		// The receive side: filter k's synapse lane i drops channel
		// j*l+i through its double-MRR filter gated by synapse bit b.
		for k := 0; k < l; k++ {
			for i := 0; i < l; i++ {
				for j := 0; j < l; j++ {
					ch := j*l + i
					acc[k] = u.gate(bus[ch], ch, (synapses[k][i][j]>>uint(b))&1 == 1, b, acc[k], led)
				}
			}
		}
		led.AddLatency(u.cfg.Tech.ClockPeriod())
	}
	return acc, nil
}

// broadcast is the transmit side of the bus: every OMAC j modulates the
// words I[*][j] on its band, charged once and heard by all filters.
func (u *unit) broadcast(inputs [][]uint64, led *optsim.Ledger) optsim.Bus {
	l := u.cfg.Lanes
	bus := make(optsim.Bus, l*l)
	for j := 0; j < l; j++ { // writer OMAC j
		for i := 0; i < l; i++ { // input lane i
			bus[j*l+i] = u.send(inputs[i][j], j*l+i, led)
		}
	}
	return bus
}

// checkEnsembleWindow rejects a window that is not L x L inputs and
// L x L x L synapses within the unit's precision.
func (u *unit) checkEnsembleWindow(inputs [][]uint64, synapses [][][]uint64) error {
	l := u.cfg.Lanes
	if len(inputs) != l {
		return fmt.Errorf("omac: ensemble needs %d input lanes, got %d", l, len(inputs))
	}
	for i, lane := range inputs {
		if len(lane) != l {
			return fmt.Errorf("omac: input lane %d has %d elements, want %d", i, len(lane), l)
		}
		for j, v := range lane {
			if v > u.mask {
				return fmt.Errorf("omac: input[%d][%d] exceeds %d-bit range", i, j, u.cfg.Bits)
			}
		}
	}
	if len(synapses) != l {
		return fmt.Errorf("omac: ensemble needs %d filters, got %d", l, len(synapses))
	}
	for k, f := range synapses {
		if len(f) != l {
			return fmt.Errorf("omac: filter %d has %d lanes, want %d", k, len(f), l)
		}
		for i, lane := range f {
			if len(lane) != l {
				return fmt.Errorf("omac: filter %d lane %d has %d elements, want %d", k, i, len(lane), l)
			}
			for j, v := range lane {
				if v > u.mask {
					return fmt.Errorf("omac: synapse[%d][%d][%d] exceeds range", k, i, j)
				}
			}
		}
	}
	return nil
}
