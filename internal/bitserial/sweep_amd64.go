//go:build amd64 && !purego

package bitserial

// AVX2 filter-sweep kernels (sweep_amd64.s). Both walk the column
// store lane-blocked — four 64-bit words per YMM register, the
// accumulators register-resident across the whole row loop — and
// store the finished sums once per block, so accumulator traffic drops
// from one load+store per MAC to one store per block. The scalar
// sweeps in batch.go finish any words%4 tail.
//
// sweepQuadAVX2 multiplies with a single VPMULUDQ per (filter, block):
// one-element-store column values fit 32 bits (operands are at most 24
// bits), so the 32x32->64 product is the exact 64-bit product, and
// VPADDQ wraps mod 2^64 exactly like Go's uint64 addition.
// sweepQuadDualAVX2 runs the dual store: VPBROADCASTD + VPMADDWD +
// VPADDD, sixteen lane MACs per multiply, exact because every operand
// is a non-negative int16 and wrapping per 32-bit lane like the scalar
// sweep's uint32 adds. Per-lane sums are order-independent, so both
// kernels are bit-identical to the scalar sweeps
// (TestSweepVectorMatchesScalar pins them together).

//go:noescape
func sweepQuadAVX2(cols *uint64, words, n int, fl1, fl2, fl3, fl4, acc1, acc2, acc3, acc4 *uint64)

//go:noescape
func sweepQuadDualAVX2(cols *uint64, words, pairs int, fl1, fl2, fl3, fl4 *uint32, acc1, acc2, acc3, acc4 *uint64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the OS-enabled SIMD
// state mask).
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether both the CPU and the OS support AVX2: the
// CPUID feature bit plus OSXSAVE and YMM/XMM state enabled in XCR0
// (an OS that does not save YMM registers across context switches
// would corrupt the kernels' accumulators).
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false // OS does not preserve XMM+YMM state
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func init() {
	if hasAVX2() {
		sweepQuadVec = sweepQuadAVX2
		sweepQuadDualVec = sweepQuadDualAVX2
		flipGapsVec = flipGapsAVX2
		useVec = true
	}
}
