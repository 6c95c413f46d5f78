//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernel for the batched filter sweep. It computes, for lane
// blocks of four 64-bit words w in [0, words&^3) and four filters k,
// the sums of the dual column store's rows against each filter, with
// the accumulator vectors register-resident across the whole row loop
// and stored once per block. Words in [words&^3, words) are left
// untouched for the scalar tail in batch.go. Per-lane sums mod 2^32
// are order-independent, so the results are bit-identical to the
// scalar sweep.
//
// Register plan:
//	SI = cols base    CX = words      DX = pairs
//	R8..R11  = fl1..fl4 bases
//	R12..R15 = acc1..acc4 bases
//	BX = block base word   AX = pair index   DI = &cols[p*words+BX]

// func sweepQuadDualAVX2(cols *uint64, words, pairs int, fl1, fl2, fl3, fl4 *uint32, acc1, acc2, acc3, acc4 *uint64)
//
// Each 32-bit lane slot of a column word holds two 16-bit
// elements and each filter word the matching two weights, all below
// 2^15, so VPMADDWD's signed 16x16 products and pairwise int32 sum are
// exact (a0*w0 + a1*w1 < 2^31) and one instruction performs sixteen
// lane MACs. VPADDD wraps each lane mod 2^32, as the scalar sweep's
// uint32 adds do. Lanes go sixteen at a time (two YMM column loads
// sharing each broadcast filter word) while eight words remain, then
// eight at a time; the DX loop counts element pairs.
TEXT ·sweepQuadDualAVX2(SB), NOSPLIT, $0-88
	MOVQ cols+0(FP), SI
	MOVQ words+8(FP), CX
	MOVQ pairs+16(FP), DX
	MOVQ fl1+24(FP), R8
	MOVQ fl2+32(FP), R9
	MOVQ fl3+40(FP), R10
	MOVQ fl4+48(FP), R11
	MOVQ acc1+56(FP), R12
	MOVQ acc2+64(FP), R13
	MOVQ acc3+72(FP), R14
	MOVQ acc4+80(FP), R15

	XORQ BX, BX

dual8block:
	LEAQ 8(BX), DI
	CMPQ DI, CX
	JGT  dual4block

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	LEAQ (SI)(BX*8), DI
	XORQ AX, AX

dual8elem:
	CMPQ AX, DX
	JGE  dual8store

	VMOVDQU (DI), Y8
	VMOVDQU 32(DI), Y9

	VPBROADCASTD (R8)(AX*4), Y10
	VPMADDWD     Y8, Y10, Y11
	VPMADDWD     Y9, Y10, Y12
	VPADDD       Y11, Y0, Y0
	VPADDD       Y12, Y4, Y4

	VPBROADCASTD (R9)(AX*4), Y13
	VPMADDWD     Y8, Y13, Y14
	VPMADDWD     Y9, Y13, Y15
	VPADDD       Y14, Y1, Y1
	VPADDD       Y15, Y5, Y5

	VPBROADCASTD (R10)(AX*4), Y10
	VPMADDWD     Y8, Y10, Y11
	VPMADDWD     Y9, Y10, Y12
	VPADDD       Y11, Y2, Y2
	VPADDD       Y12, Y6, Y6

	VPBROADCASTD (R11)(AX*4), Y13
	VPMADDWD     Y8, Y13, Y14
	VPMADDWD     Y9, Y13, Y15
	VPADDD       Y14, Y3, Y3
	VPADDD       Y15, Y7, Y7

	LEAQ (DI)(CX*8), DI
	INCQ AX
	JMP  dual8elem

dual8store:
	VMOVDQU Y0, (R12)(BX*8)
	VMOVDQU Y4, 32(R12)(BX*8)
	VMOVDQU Y1, (R13)(BX*8)
	VMOVDQU Y5, 32(R13)(BX*8)
	VMOVDQU Y2, (R14)(BX*8)
	VMOVDQU Y6, 32(R14)(BX*8)
	VMOVDQU Y3, (R15)(BX*8)
	VMOVDQU Y7, 32(R15)(BX*8)
	ADDQ    $8, BX
	JMP     dual8block

dual4block:
	LEAQ 4(BX), DI
	CMPQ DI, CX
	JGT  dualdone

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	LEAQ (SI)(BX*8), DI
	XORQ AX, AX

dual4elem:
	CMPQ AX, DX
	JGE  dual4store

	VMOVDQU      (DI), Y8
	VPBROADCASTD (R8)(AX*4), Y4
	VPBROADCASTD (R9)(AX*4), Y5
	VPBROADCASTD (R10)(AX*4), Y6
	VPBROADCASTD (R11)(AX*4), Y7
	VPMADDWD     Y8, Y4, Y4
	VPMADDWD     Y8, Y5, Y5
	VPMADDWD     Y8, Y6, Y6
	VPMADDWD     Y8, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y2, Y2
	VPADDD       Y7, Y3, Y3

	LEAQ (DI)(CX*8), DI
	INCQ AX
	JMP  dual4elem

dual4store:
	VMOVDQU Y0, (R12)(BX*8)
	VMOVDQU Y1, (R13)(BX*8)
	VMOVDQU Y2, (R14)(BX*8)
	VMOVDQU Y3, (R15)(BX*8)

dualdone:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
