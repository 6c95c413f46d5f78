package elec

// Alternative adder architectures. The paper prices its accumulators
// with the classified-CLA formulas (Eq. 5/6); a Kogge-Stone parallel-
// prefix adder trades more wiring and gates for logarithmic depth —
// the comparison quantifies how sensitive the EE/OE cycle time is to
// the adder choice.

// KoggeStoneGateCount returns the gate count of an n-bit Kogge-Stone
// adder: n half-sum/generate cells, ceil(log2 n) prefix ranks of up to
// n (g,p) merge cells (3 gate-equivalents each), and n sum XORs.
func KoggeStoneGateCount(n int) int {
	if n < 1 {
		panic("elec.KoggeStoneGateCount: width must be >= 1")
	}
	ranks := log2ceilAtLeast1(n)
	merge := 0
	for r := 0; r < ranks; r++ {
		span := 1 << uint(r)
		if span < n {
			merge += n - span
		}
	}
	return 2*n + 3*merge + n
}

// KoggeStoneLogicDepth returns the logic depth: one preprocessing
// level, ceil(log2 n) prefix ranks, one sum level.
func KoggeStoneLogicDepth(n int) int {
	if n < 1 {
		panic("elec.KoggeStoneLogicDepth: width must be >= 1")
	}
	return 2 + log2ceilAtLeast1(n)
}

// KoggeStone returns the structural gate count of an n-bit
// parallel-prefix adder.
func KoggeStone(n int) GateCount {
	return GateCount{Gates: KoggeStoneGateCount(n), Depth: KoggeStoneLogicDepth(n)}
}
