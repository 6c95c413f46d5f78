package elec

// Bit-parallel multiplier models, for the extension experiment that
// contrasts the paper's bit-serial (Stripes) discipline against a
// conventional parallel MAC.

// ArrayMultiplier returns the gate count of an n x n array multiplier:
// n^2 partial-product AND gates plus (n-1) rows of n-bit carry-save
// adders (~5 gate-equivalents per full adder) and a final n-bit CLA.
func ArrayMultiplier(n int) GateCount {
	if n < 1 {
		panic("elec.ArrayMultiplier: width must be >= 1")
	}
	partial := GateCount{Gates: n * n, Depth: 1}
	csa := GateCount{Gates: 5 * n * (n - 1), Depth: 2 * (n - 1)}
	final := CLA(n)
	return partial.Chain(csa).Chain(final)
}

// WallaceMultiplier returns the gate count of a Wallace-tree multiplier:
// same partial products and adder cells, but the reduction tree is
// logarithmic in depth (~1.7 log2 levels of 3:2 compressors).
func WallaceMultiplier(n int) GateCount {
	if n < 1 {
		panic("elec.WallaceMultiplier: width must be >= 1")
	}
	partial := GateCount{Gates: n * n, Depth: 1}
	levels := 1
	for h := n; h > 2; h = (h*2 + 2) / 3 {
		levels++
	}
	tree := GateCount{Gates: 5 * n * (n - 1), Depth: 2 * levels}
	final := CLA(2 * n)
	return partial.Chain(tree).Chain(final)
}
