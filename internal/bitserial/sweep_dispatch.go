package bitserial

// Vector-kernel dispatch for the batched filter sweep and the flip-gap
// block. On hosts with a vector implementation (amd64 with AVX2,
// unless built with the purego tag) the init in sweep_amd64.go plugs
// the assembly kernels in here; everywhere else the pointers stay nil
// and the scalar loops in batch.go and perturb.go run alone. The sweep
// kernel computes lane blocks of four words at a time over the same
// column store the scalar sweep walks; because every 32-bit lane half
// accumulates independently mod 2^32, the two orders of summation
// produce bit-identical accumulators (pinned by
// TestSweepVectorMatchesScalar).
// The gap kernel repeats flipGaps' scalar operations four lanes at a
// time and leaves to them every lane it cannot certify (pinned by the
// TestFlipGap tests, run with the kernels on and off).
var (
	// useVec gates the vector kernels; false when the build excludes
	// them or the CPU lacks AVX2.
	useVec bool
	// flipGapsVec turns a block of words into gaps in place, as
	// flipGaps does, except that it marks each lane it cannot certify
	// with uncertified instead; it reports whether it certified all.
	flipGapsVec func(b *[blockLen]uint64, ilp float64) bool
	// sweepQuadDualVec sweeps four filters over words [0, words&^3) of
	// the dual store: each 32-bit half of a column word holds two
	// 16-bit elements, each filter word the matching two weights, and
	// each half of acc_k[w] accumulates its lane's Σ_p a0*w0 + a1*w1
	// mod 2^32.
	sweepQuadDualVec func(cols *uint64, words, pairs int, fl1, fl2, fl3, fl4 *uint32, acc1, acc2, acc3, acc4 *uint64)
)

// VectorSweep reports whether the batched filter sweep is running on
// the host's vector kernels (AVX2) rather than the portable scalar
// loops.
func VectorSweep() bool { return useVec }

// setVecForTest forces the vector kernels on or off, returning the
// previous setting; a no-op "on" when the build has no kernels. Tests
// and benchmarks use it to pin the scalar and vector sweeps against
// each other on the same host.
func setVecForTest(on bool) (prev bool) {
	prev = useVec
	useVec = on && sweepQuadDualVec != nil
	return prev
}
