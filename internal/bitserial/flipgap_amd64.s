//go:build amd64 && !purego

#include "textflag.h"

// Offsets of the constants in gapK (flipgap_amd64.go), 32 bytes each.
#define K_LO32 0
#define K_EXP52 32
#define K_EXP21 64
#define K_EXPM11 96
#define K_EXP21_M11 128
#define K_ONE 160
#define K_LOGOFF 192
#define K_KBIAS 224
#define K_KOFF 256
#define K_CELL 288
#define K_EXPMASK 320
#define K_THIRD 352
#define K_MHALF 384
#define K_FIFTH 416
#define K_MQUARTER 448
#define K_SEVENTH 480
#define K_MSIXTH 512
#define K_LN2 544
#define K_RELLO 576
#define K_RELHI 608
#define K_SLACKABS 640
#define K_MARK 672

// func flipGapsAVX2(b *[blockLen]uint64, ilp float64) bool
//
// Turns the 256 words of b into gaps in place, four lanes a step. Each
// step is flipGaps' scalar loop lane by lane:
//
//	x = 1 - float64(v)/2^63
//	l = fastLog(x)
//	q = l*ilp; lo = q*(1-2^-36) + ilp*2^-44; hi = q*(1+2^-36) - ilp*2^-44
//	gap = floor(lo) if floor(lo) == floor(hi) and lies in [0, 2^52)
//
// and a lane that fails the test keeps v | 1<<63. Returns whether
// every lane passed.
//
// Register plan:
//	DI = next lane block   CX = end of b
//	R8 = &gapK             R9 = &logTab
//	Y11 = 0   Y12 = 1   Y13 = AND of the certified masks
//	Y14 = ilp*2^-44        Y15 = ilp
//	Y0..Y10 = the step's temporaries
//	AX, BX, DX, SI = the four lanes' cell indexes, read back from the
//	    32-byte frame the index vector is stored to
TEXT ·flipGapsAVX2(SB), NOSPLIT, $32-17
	MOVQ b+0(FP), DI
	LEAQ 2048(DI), CX
	LEAQ ·gapK(SB), R8
	LEAQ ·logTab(SB), R9

	VBROADCASTSD ilp+8(FP), Y15
	VMULPD       K_SLACKABS(R8), Y15, Y14
	VXORPD       Y11, Y11, Y11
	VMOVUPD      K_ONE(R8), Y12
	VPCMPEQQ     Y13, Y13, Y13

gapstep:
	// x = 1 - U, U = float64(v)*2^-63: v = hi*2^32 + lo, with
	// (2^21 + hi*2^-31) - (2^21 + 2^-11) and 2^-11 + lo*2^-63 both
	// exact, so their sum is float64(v)*2^-63 rounded once, as
	// CVTSQ2SD rounds float64(v).
	VMOVDQU (DI), Y0
	VPSRLQ  $32, Y0, Y1
	VPAND   K_LO32(R8), Y0, Y2
	VPOR    K_EXP21(R8), Y1, Y1
	VPOR    K_EXPM11(R8), Y2, Y2
	VSUBPD  K_EXP21_M11(R8), Y1, Y1
	VADDPD  Y2, Y1, Y1
	VSUBPD  Y1, Y12, Y1

	// fastLog(x). t = ix - logOff; k = t>>52 (arithmetic) comes out of
	// a logical shift of t + 2^62 as k + 1024, converted exactly
	// through 2^52; z = ix - (t & 0xfff<<52). The cell index, doubled,
	// is the offset in float64s of the lane's 16-byte (inv, log) cell:
	// each lane loads its cell as one pair, and two unpacks sort the
	// pairs into an inv vector (Y10) and a log vector (Y8).
	VPSUBQ      K_LOGOFF(R8), Y1, Y2
	VPADDQ      K_KBIAS(R8), Y1, Y3
	VPSRLQ      $52, Y3, Y3
	VPOR        K_EXP52(R8), Y3, Y3
	VSUBPD      K_KOFF(R8), Y3, Y3
	VPSRLQ      $44, Y2, Y4
	VPAND       K_CELL(R8), Y4, Y4
	VPAND       K_EXPMASK(R8), Y2, Y5
	VPSUBQ      Y5, Y1, Y5
	VMOVDQU     Y4, cells-32(SP)
	MOVQ        cells-32(SP), AX
	MOVQ        cells-24(SP), BX
	MOVQ        cells-16(SP), DX
	MOVQ        cells-8(SP), SI
	VMOVUPD     (R9)(AX*8), X7
	VMOVUPD     (R9)(BX*8), X8
	VINSERTF128 $1, (R9)(DX*8), Y7, Y7
	VINSERTF128 $1, (R9)(SI*8), Y8, Y8
	VUNPCKLPD   Y8, Y7, Y10
	VUNPCKHPD   Y8, Y7, Y8

	// r = z*inv - 1; p = (-0.5 + r/3) + r2*(-0.25 + r*0.2)
	// + (r2*r2)*(-1/6 + r/7); l = (k*ln2 + log) + (r + r2*p).
	VMULPD Y10, Y5, Y5
	VSUBPD Y12, Y5, Y5
	VMULPD Y5, Y5, Y6
	VMULPD K_THIRD(R8), Y5, Y7
	VADDPD K_MHALF(R8), Y7, Y7
	VMULPD K_FIFTH(R8), Y5, Y9
	VADDPD K_MQUARTER(R8), Y9, Y9
	VMULPD Y9, Y6, Y9
	VADDPD Y9, Y7, Y7
	VMULPD K_SEVENTH(R8), Y5, Y9
	VADDPD K_MSIXTH(R8), Y9, Y9
	VMULPD Y6, Y6, Y10
	VMULPD Y9, Y10, Y9
	VADDPD Y9, Y7, Y7
	VMULPD Y7, Y6, Y7
	VADDPD Y7, Y5, Y7
	VMULPD K_LN2(R8), Y3, Y3
	VADDPD Y8, Y3, Y3
	VADDPD Y7, Y3, Y3

	// The bracket and its test: floor(lo) == floor(hi) (predicate
	// EQ_OQ, false on NaN) with floor(lo) in [0, 2^52), which is when
	// floor(lo) + 2^52 keeps the sign and exponent of 2^52: then its
	// mantissa is the gap, and the XOR leaves nothing above bit 51.
	VMULPD    Y15, Y3, Y3
	VMULPD    K_RELLO(R8), Y3, Y4
	VADDPD    Y14, Y4, Y4
	VMULPD    K_RELHI(R8), Y3, Y5
	VSUBPD    Y14, Y5, Y5
	VROUNDPD  $1, Y4, Y4
	VROUNDPD  $1, Y5, Y5
	VCMPPD    $0x00, Y5, Y4, Y5
	VADDPD    K_EXP52(R8), Y4, Y4
	VPXOR     K_EXP52(R8), Y4, Y4
	VPSRLQ    $52, Y4, Y6
	VPCMPEQQ  Y11, Y6, Y6
	VPAND     Y6, Y5, Y5
	VPAND     Y5, Y13, Y13
	VPOR      K_MARK(R8), Y0, Y0
	VBLENDVPD Y5, Y4, Y0, Y0
	VMOVDQU   Y0, (DI)

	ADDQ $32, DI
	CMPQ DI, CX
	JNE  gapstep

	VMOVMSKPD Y13, AX
	CMPL      AX, $15
	SETEQ     ret+16(FP)
	VZEROUPPER
	RET
