package omac

import (
	"pixel/internal/elec"
	"pixel/internal/optsim"
)

// Signed dot products on the optical units. Light carries no sign, so
// operands travel offset-binary encoded (see bitserial.OffsetCodec):
// the unsigned optical datapath computes the encoded inner product, and
// two narrow electrical accumulators (charged to the add category)
// track the operand sums for the algebraic correction.

// signedDot runs the unit's offset codec pipeline around its unsigned
// datapath through mul.
func (u *unit) signedDot(mul multiplier, ns, ss []int64, led *optsim.Ledger) (int64, error) {
	if u.codecErr != nil {
		return 0, u.codecErr
	}
	return u.codec.DotProduct(ns, ss, func(us, ws []uint64) (uint64, error) {
		raw, err := u.dot(mul, us, ws, led)
		if err != nil {
			return 0, err
		}
		// The two correction accumulators: narrow CLAs, one add each per
		// term, plus the final three-term correction.
		corr := elec.CLA(u.codec.Bits() + 8)
		led.Charge(optsim.CatAdd, float64(2*len(us)+3)*corr.Energy(u.cfg.Tech))
		led.AddLatency(corr.Delay(u.cfg.Tech))
		return raw, nil
	})
}

// SignedDotProduct computes a signed inner product through the hybrid
// datapath.
func (u *OEUnit) SignedDotProduct(ns, ss []int64, led *optsim.Ledger) (int64, error) {
	return u.signedDot(u.Multiply, ns, ss, led)
}

// SignedDotProduct computes a signed inner product through the
// all-optical datapath.
func (u *OOUnit) SignedDotProduct(ns, ss []int64, led *optsim.Ledger) (int64, error) {
	return u.signedDot(u.Multiply, ns, ss, led)
}
