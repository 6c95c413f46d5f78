//go:build amd64 && !purego

package bitserial

import "math"

// flipGapsAVX2 is the AVX2 flip-gap kernel (flipgap_amd64.s). Four
// lanes at a time it forms each word's uniform as rand.Float64 does
// (the word's 32-bit halves converted exactly through magic constants
// that carry the 2^-63 scale, and summed with one rounding) and 1-U.
// It computes fastLog with fastLog's operations in fastLog's order and
// no fused multiply-add, so its log is fastLog's bit for bit; each
// lane loads its (inv, log) table cell as one 16-byte pair, which
// measured faster than two VGATHERQPD. It then brackets the quotient as
// certifiedGap does and floors both ends with VROUNDPD. A lane is
// certified when both floors agree and lie in [0, 2^52), where the
// floor converts to an integer exactly; certifiedGap certifies the
// same gap there. Every other lane (a quotient near an integer, x = 1,
// NaN or Inf, a gap of 2^52 or more) keeps its word, marked with
// uncertified. It reports whether it certified every lane.
//
//go:noescape
func flipGapsAVX2(b *[blockLen]uint64, ilp float64) bool

// gapK holds the gap kernel's constants, each repeated across the four
// lanes of a YMM operand, in the order of the K_ offsets in
// flipgap_amd64.s. The float constants are written as fastLog and
// certifiedGap write them, so they round to the same float64s.
var gapK = func() (k [22][4]uint64) {
	for i, c := range [...]uint64{
		0xffffffff,                         // K_LO32
		math.Float64bits(0x1p52),           // K_EXP52
		math.Float64bits(0x1p21),           // K_EXP21
		math.Float64bits(0x1p-11),          // K_EXPM11
		math.Float64bits(0x1p21 + 0x1p-11), // K_EXP21_M11
		math.Float64bits(1),                // K_ONE
		logOff,                             // K_LOGOFF
		1<<62 - logOff,                     // K_KBIAS
		math.Float64bits(0x1p52 + 1024),    // K_KOFF
		(1<<logTabBits - 1) << 1,           // K_CELL
		0xfff << 52,                        // K_EXPMASK
		math.Float64bits(1.0 / 3),          // K_THIRD
		math.Float64bits(-0.5),             // K_MHALF
		math.Float64bits(0.2),              // K_FIFTH
		math.Float64bits(-0.25),            // K_MQUARTER
		math.Float64bits(1.0 / 7),          // K_SEVENTH
		math.Float64bits(-1.0 / 6),         // K_MSIXTH
		math.Float64bits(math.Ln2),         // K_LN2
		math.Float64bits(1 - gapSlackRel),  // K_RELLO
		math.Float64bits(1 + gapSlackRel),  // K_RELHI
		math.Float64bits(gapSlackAbs),      // K_SLACKABS
		uncertified,                        // K_MARK
	} {
		k[i] = [4]uint64{c, c, c, c}
	}
	return k
}()
