package bitserial

import (
	"fmt"
	"math"
)

// Signed MAC support. The optical AND stage is inherently unsigned
// (light is either present or not), so signed operands use *offset
// binary*: each value v in [-2^(b-1), 2^(b-1)-1] is encoded as
// u = v + 2^(b-1), the unsigned datapath computes the dot product of
// the encoded vectors, and the exact signed result is recovered
// algebraically:
//
//	sum(n_i * s_i) = sum(u_i * w_i) - o*sum(u_i) - o*sum(w_i) + k*o^2
//
// with o = 2^(b-1) and k the term count. The correction needs only two
// extra running sums — narrow electrical adders in hardware — so the
// same OE/OO optics serve signed networks unchanged.

// OffsetCodec encodes/decodes signed operands for an unsigned MAC
// datapath of the given precision.
type OffsetCodec struct {
	bits   int
	offset int64
}

// NewOffsetCodec returns a codec for signed values of the given
// precision (2..24 bits).
func NewOffsetCodec(bits int) (*OffsetCodec, error) {
	if bits < 2 || bits > 24 {
		return nil, fmt.Errorf("bitserial: signed precision %d out of range [2,24]", bits)
	}
	return &OffsetCodec{bits: bits, offset: 1 << uint(bits-1)}, nil
}

// Bits returns the operand precision.
func (c *OffsetCodec) Bits() int { return c.bits }

// MinValue and MaxValue bound the representable signed range.
func (c *OffsetCodec) MinValue() int64 { return -c.offset }
func (c *OffsetCodec) MaxValue() int64 { return c.offset - 1 }

// Encode maps a signed value into the unsigned operand range.
func (c *OffsetCodec) Encode(v int64) (uint64, error) {
	if v < c.MinValue() || v > c.MaxValue() {
		return 0, fmt.Errorf("bitserial: %d outside signed %d-bit range [%d,%d]",
			v, c.bits, c.MinValue(), c.MaxValue())
	}
	return uint64(v + c.offset), nil
}

// EncodeVector encodes a signed vector.
func (c *OffsetCodec) EncodeVector(vs []int64) ([]uint64, error) {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		u, err := c.Encode(v)
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// Correct recovers the signed dot product from the unsigned result and
// the encoded operand sums: raw = sum(u*w), sumU = sum(u), sumW =
// sum(w), k = term count.
func (c *OffsetCodec) Correct(raw uint64, sumU, sumW uint64, k int) (int64, error) {
	o := c.offset
	if raw > math.MaxInt64 {
		return 0, fmt.Errorf("bitserial: raw accumulation overflows int64")
	}
	res := int64(raw) - o*int64(sumU) - o*int64(sumW) + int64(k)*o*o
	return res, nil
}

// DotProduct is the offset pipeline around an unsigned datapath: it
// encodes both signed vectors, takes their unsigned dot product through
// dot, sums the encoded operands and corrects the raw result to the
// signed inner product. Callers keep their own accounting of the
// correction sums. Every signed MAC is this pipeline around its
// unit's own unsigned datapath (the EE unit's Engine, the OE/OO
// units' optical dot product).
func (c *OffsetCodec) DotProduct(ns, ss []int64, dot func(us, ws []uint64) (uint64, error)) (int64, error) {
	if len(ns) != len(ss) {
		return 0, fmt.Errorf("bitserial: vector lengths differ (%d vs %d)", len(ns), len(ss))
	}
	us, err := c.EncodeVector(ns)
	if err != nil {
		return 0, err
	}
	ws, err := c.EncodeVector(ss)
	if err != nil {
		return 0, err
	}
	raw, err := dot(us, ws)
	if err != nil {
		return 0, err
	}
	var sumU, sumW uint64
	for i := range us {
		sumU += us[i]
		sumW += ws[i]
	}
	return c.Correct(raw, sumU, sumW, len(us))
}
