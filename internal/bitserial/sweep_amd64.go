//go:build amd64 && !purego

package bitserial

// AVX2 filter-sweep kernel (sweep_amd64.s). sweepQuadDualAVX2 walks
// the dual column store lane-blocked — four 64-bit words per YMM
// register, the accumulators register-resident across the whole row
// loop — and stores the finished sums once per block, so accumulator
// traffic drops from one load+store per MAC to one store per block.
// The scalar sweep in batch.go finishes any words%4 tail. It runs
// VPBROADCASTD + VPMADDWD + VPADDD, sixteen lane MACs per multiply,
// exact because every operand is a non-negative int16 and wrapping per
// 32-bit lane like the scalar sweep's uint32 adds. Per-lane sums are
// order-independent, so the kernel is bit-identical to the scalar
// sweep (TestSweepVectorMatchesScalar pins them together).

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
		sweepQuadDualVec = sweepQuadDualAVX2
		flipGapsVec = flipGapsAVX2
		useVec = true
	}
}
