package omac

import (
	"fmt"

	"pixel/internal/elec"
	"pixel/internal/optsim"
)

// OOEnsemble is the all-optical counterpart of Ensemble: the Figure
// 2(c) arrangement at bus level. Neuron words broadcast once on the
// WDM bus (as in the OE ensemble); each filter's synapse-bit MRR
// stages gate per-wavelength copies; per-(filter, lane, element) MZI
// chains form the products optically; only the digit-merge across
// products stays electrical.
type OOEnsemble struct {
	oo *OOUnit
}

// NewOOEnsemble builds the L-OMAC all-optical ensemble; its merge adder
// is sized for the window's L^2 products per filter.
func NewOOEnsemble(cfg Config) (*OOEnsemble, error) {
	u, err := NewOOUnit(cfg, cfg.Lanes*cfg.Lanes)
	if err != nil {
		return nil, err
	}
	return &OOEnsemble{oo: u}, nil
}

// Window executes the full window all-optically; indexing and shape
// checks match Ensemble.Window. Each (filter, lane, element) product
// forms in one optical pass; the L^2 products per filter merge
// electrically.
func (e *OOEnsemble) Window(inputs [][]uint64, synapses [][][]uint64, led *optsim.Ledger) ([]uint64, error) {
	u := e.oo
	if err := u.checkEnsembleWindow(inputs, synapses); err != nil {
		return nil, err
	}
	l, bits := u.cfg.Lanes, u.cfg.Bits

	// One broadcast of every word: modulation and laser charged once
	// per channel for the whole ensemble (the MWSR amortization).
	bus := u.broadcast(inputs, led)
	u.cfg.laserEnergy(u.budget.LaserPowerPerWavelength, l*l*bits*bits, led)

	merge := elec.CLA(u.accWidth).Energy(u.cfg.Tech)
	out := make([]uint64, l)
	for k, filter := range synapses {
		var acc uint64
		for i := 0; i < l; i++ {
			for j := 0; j < l; j++ {
				// Every AND stage gates a copy of the broadcast word.
				ch := j*l + i
				word := func() *optsim.Signal { return bus[ch] }
				v, err := u.product(word, ch, filter[i][j], led)
				if err != nil {
					return nil, fmt.Errorf("omac: filter %d chain (%d,%d): %w", k, i, j, err)
				}
				acc, _ = u.adder.Add(acc, v, false)
				led.Charge(optsim.CatAdd, merge)
			}
		}
		out[k] = acc
	}
	return out, nil
}
