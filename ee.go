package pixel

import (
	"pixel/internal/bitserial"
	"pixel/internal/optsim"
)

// eeUnit is the EE design behind MAC: the gate-level Stripes engine. It
// meters no energy, so it ignores the ledger.
type eeUnit struct {
	engine *bitserial.Engine
	// codec is the signed path's offset codec, or nil with codecErr
	// when the precision has no signed range (1 bit): a 1-bit MAC still
	// builds, and only its SignedDotProduct fails.
	codec    *bitserial.OffsetCodec
	codecErr error
}

func newEEUnit(bits, terms int) (*eeUnit, error) {
	e, err := bitserial.NewEngine(bits, terms)
	if err != nil {
		return nil, err
	}
	codec, codecErr := bitserial.NewOffsetCodec(bits)
	return &eeUnit{engine: e, codec: codec, codecErr: codecErr}, nil
}

func (u *eeUnit) Multiply(x, y uint64, _ *optsim.Ledger) (uint64, error) {
	v, _, err := u.engine.Multiply(x, y)
	return v, err
}

func (u *eeUnit) DotProduct(x, y []uint64, _ *optsim.Ledger) (uint64, error) {
	v, _, err := u.engine.DotProduct(x, y)
	return v, err
}

// SignedDotProduct runs the offset codec around the unsigned engine.
func (u *eeUnit) SignedDotProduct(x, y []int64, _ *optsim.Ledger) (int64, error) {
	if u.codecErr != nil {
		return 0, u.codecErr
	}
	return u.codec.DotProduct(x, y, func(us, ws []uint64) (uint64, error) {
		return u.DotProduct(us, ws, nil)
	})
}
