package pixel

import (
	"pixel/internal/bitserial"
	"pixel/internal/optsim"
)

// eeUnit is the EE design behind MAC: the gate-level Stripes engine. It
// meters no energy, so it ignores the ledger.
type eeUnit struct {
	engine *bitserial.Engine
	terms  int
}

func newEEUnit(bits, terms int) (*eeUnit, error) {
	e, err := bitserial.NewEngine(bits, terms)
	if err != nil {
		return nil, err
	}
	return &eeUnit{engine: e, terms: terms}, nil
}

func (u *eeUnit) Multiply(x, y uint64, _ *optsim.Ledger) (uint64, error) {
	v, _, err := u.engine.Multiply(x, y)
	return v, err
}

func (u *eeUnit) DotProduct(x, y []uint64, _ *optsim.Ledger) (uint64, error) {
	v, _, err := u.engine.DotProduct(x, y)
	return v, err
}

// SignedDotProduct builds its signed engine per call: signed operands
// need at least 2 bits, and a 1-bit MAC must still build.
func (u *eeUnit) SignedDotProduct(x, y []int64, _ *optsim.Ledger) (int64, error) {
	se, err := bitserial.NewSignedEngine(u.engine.Bits(), u.terms)
	if err != nil {
		return 0, err
	}
	v, _, err := se.DotProduct(x, y)
	return v, err
}
