package elec

import "fmt"

// CLAGateCount returns the gate count GC(n) of an n-bit carry-lookahead
// adder per the paper's Eq. 5:
//
//	GC(n) = (n^3 + 6n^2 + 47n) / 6
//
// Worked examples from the paper: GC(8) = 212, GC(4) = 58.
func CLAGateCount(n int) int {
	if n < 1 {
		panic("elec.CLAGateCount: width must be >= 1")
	}
	return (n*n*n + 6*n*n + 47*n) / 6
}

// CLALogicDepth returns the logic depth LD(n) of an n-bit carry-lookahead
// adder per the paper's Eq. 6:
//
//	LD(n) = 4 + 2*ceil(log2(n-1))
//
// Worked example from the paper: LD(8) = 10. For n <= 2 the lookahead
// network degenerates; we return the Eq. 6 value with the ceil(log2)
// term clamped at zero, i.e. LD = 4.
func CLALogicDepth(n int) int {
	if n < 1 {
		panic("elec.CLALogicDepth: width must be >= 1")
	}
	if n <= 2 {
		return 4
	}
	return 4 + 2*log2ceil(n-1)
}

func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// CLA returns the structural gate count of an n-bit carry-lookahead adder
// (combinational part only; output registers are accounted separately by
// the accumulator models).
func CLA(n int) GateCount {
	return GateCount{Gates: CLAGateCount(n), Depth: CLALogicDepth(n)}
}

// CLAAdder is a bit-exact functional model of a carry-lookahead adder.
// It computes sums the way the hardware does — generate/propagate signals
// feeding a lookahead carry network — rather than delegating to the host
// "+" operator, so the functional simulators exercise the same structure
// that the cost model prices.
type CLAAdder struct {
	width int
	mask  uint64
}

// NewCLAAdder returns an adder for words of the given bit width
// (1..64 bits).
func NewCLAAdder(width int) (*CLAAdder, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("elec: CLA width %d out of range [1,64]", width)
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << uint(width)) - 1
	}
	return &CLAAdder{width: width, mask: mask}, nil
}

// Add returns the width-bit sum of x and y plus the incoming carry, along
// with the carry out of the most significant bit. Inputs wider than the
// adder are truncated, as real hardware would.
func (a *CLAAdder) Add(x, y uint64, carryIn bool) (sum uint64, carryOut bool) {
	x &= a.mask
	y &= a.mask

	// Generate and propagate per bit position.
	g := x & y   // bit i generates a carry
	p := x ^ y   // bit i propagates a carry
	var c uint64 // c has bit i set if there is a carry *into* position i
	ci := carryIn
	// Lookahead network: carry into i+1 = g_i | (p_i & carry into i).
	// Computed as a prefix over the width, mirroring a (serialized)
	// lookahead tree evaluation.
	for i := 0; i < a.width; i++ {
		if ci {
			c |= 1 << uint(i)
		}
		gi := (g>>uint(i))&1 == 1
		pi := (p>>uint(i))&1 == 1
		ci = gi || (pi && ci)
	}
	sum = (p ^ c) & a.mask
	return sum, ci
}
