package elec

// The activation is the hybrid piecewise-linear hyperbolic tangent unit
// the paper adopts (Zamanlooy & Mirhassani, TVLSI 2014): a PLAN-style
// approximation whose segment slopes are powers of two, so every
// multiply is a bit-shift ("bit-level mapping") and the datapath is
// comparator + shifter + adder. For x >= 0 (odd symmetry below zero):
//
//	0.0 <= x < 0.5    y = x
//	0.5 <= x < 7/6    y = x/2 + 1/4
//	7/6 <= x < 2.5    y = x/8 + 11/16
//	2.5 <= x          y = 1
//
// The cost model prices that datapath; it does not evaluate it.

// TanhUnitGates returns the structural gate count of the activation unit
// for a given datapath width: three fixed-bound comparators, a two-level
// shift mux, a narrow adder for the offset, and sign handling. The hybrid
// design's headline is an ultra-low gate count, linear in width.
func TanhUnitGates(width int) GateCount {
	if width < 2 {
		panic("elec.TanhUnitGates: width must be >= 2")
	}
	comparators := GateCount{Gates: 3 * width, Depth: 3}
	shiftMux := GateCount{Gates: 3 * width, Depth: 2}
	offsetAdd := GateCount{Gates: CLAGateCount(width) / 4, Depth: CLALogicDepth(width) / 2}
	sign := GateCount{Gates: 2 * width, Depth: 1}
	return comparators.Chain(shiftMux).Chain(offsetAdd).Add(sign)
}
