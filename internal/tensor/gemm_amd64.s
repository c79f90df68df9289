// AVX microkernels for the packed GEMM path and, below it, the K-row
// FC input gradient (matVecT4x16AVX). See gemm.go for the layout and
// the determinism contract; the GEMM body must stay
// bit-identical to kernelQuadPanelGo: per output lane one running sum,
// products added in ascending p order, A rows skipped on `av != 0`
// (NEQ_UQ, so NaN lanes are never skipped). Packed-single VMULPS /
// VADDPS are IEEE-exact per lane, so lane placement does not change
// results. Operand order keeps the running sum as the first source of
// VADDPS and the A value as the first source of VMULPS, matching the
// NaN-propagation of the scalar MULSS/ADDSS sequence.

#include "textflag.h"

// ROW multiplies the broadcast A lane at off(R8) by the two B vectors
// Y8, Y9 of one k step and adds the products into row accumulators
// lo, hi.
#define ROW(off, lo, hi) \
	VBROADCASTSS off(R8), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VMULPS       Y9, Y10, Y10; \
	VADDPS       Y11, lo, lo;  \
	VADDPS       Y10, hi, hi

// func gemmQuadPanelAVX(c *float32, n int, ap, bp *float32, k int)
//
// Accumulates the 4×16 tile at rows c, c+n, c+2n, c+3n (stride n
// floats) with the product of the packed A quad ap (k steps of 4
// lanes) and the packed B panel bp (k steps of 16 lanes). Y0..Y7 hold
// the tile, two vectors per row. The zero test runs once per block of
// two k steps: one VCMPPS over the block's 8 A lanes. A block whose
// lanes are all nonzero runs both steps densely; otherwise one step
// runs on the per-step path, which adds only the rows whose lane is
// nonzero, and the next block starts after it.
TEXT ·gemmQuadPanelAVX(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ ap+16(FP), R8
	MOVQ bp+24(FP), R9
	MOVQ k+32(FP), CX
	SHLQ $2, SI        // row stride in bytes
	LEAQ (DI)(SI*2), R10

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(SI*1), Y2
	VMOVUPS 32(DI)(SI*1), Y3
	VMOVUPS (R10), Y4
	VMOVUPS 32(R10), Y5
	VMOVUPS (R10)(SI*1), Y6
	VMOVUPS 32(R10)(SI*1), Y7

	VXORPS Y15, Y15, Y15 // zero, for the skip test

block:
	CMPQ CX, $2
	JLT  tail
	VMOVUPS   (R8), Y12       // A lanes of two k steps
	VCMPPS    $4, Y15, Y12, Y12 // NEQ_UQ: lane != 0, true for NaN
	VMOVMSKPS Y12, AX
	CMPL      AX, $0xff
	JNE       step

	// dense block: both steps, every row contributes
	VMOVUPS (R9), Y8
	VMOVUPS 32(R9), Y9
	ROW(0, Y0, Y1)
	ROW(4, Y2, Y3)
	ROW(8, Y4, Y5)
	ROW(12, Y6, Y7)
	VMOVUPS 64(R9), Y8
	VMOVUPS 96(R9), Y9
	ROW(16, Y0, Y1)
	ROW(20, Y2, Y3)
	ROW(24, Y4, Y5)
	ROW(28, Y6, Y7)
	ADDQ $32, R8
	ADDQ $128, R9
	SUBQ $2, CX
	JMP  block

tail:
	TESTQ CX, CX
	JZ    done

step:
	// one k step: only rows whose A lane is nonzero contribute
	VMOVUPS   (R8), X12
	VCMPPS    $4, X15, X12, X12
	VMOVMSKPS X12, AX
	VMOVUPS   (R9), Y8
	VMOVUPS   32(R9), Y9
	TESTL     $1, AX
	JZ        s1
	ROW(0, Y0, Y1)

s1:
	TESTL $2, AX
	JZ    s2
	ROW(4, Y2, Y3)

s2:
	TESTL $4, AX
	JZ    s3
	ROW(8, Y4, Y5)

s3:
	TESTL $8, AX
	JZ    s4
	ROW(12, Y6, Y7)

s4:
	ADDQ $16, R8
	ADDQ $64, R9
	DECQ CX
	JMP  block

done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(SI*1)
	VMOVUPS Y3, 32(DI)(SI*1)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R10)(SI*1)
	VMOVUPS Y7, 32(R10)(SI*1)
	VZEROUPPER
	RET

// TROW adds the broadcast coefficient at src times the two A vectors
// Y8, Y9 of one o step into row accumulators lo, hi, unless the
// coefficient is zero (NEQ_UQ, so NaN is added): the sum is formed
// always, and the blend keeps the old sum where the mask is clear.
#define TROW(src, lo, hi) \
	VBROADCASTSS src, Y10;           \
	VCMPPS       $4, Y15, Y10, Y11;  \
	VMULPS       Y8, Y10, Y12;       \
	VADDPS       Y12, lo, Y12;       \
	VBLENDVPS    Y11, Y12, lo, lo;   \
	VMULPS       Y9, Y10, Y13;       \
	VADDPS       Y13, hi, Y13;       \
	VBLENDVPS    Y11, Y13, hi, hi

// func matVecT4x16AVX(y *float32, ldy int, a *float32, lda int, x *float32, ldx, m int)
//
// Accumulates the 4×16 tile at y (rows at stride ldy floats) with
// Σ_o x_r[o]·A[o][0:16] for the four coefficient rows at x (stride
// ldx floats) over the m rows of A at a (stride lda floats), o
// ascending. Y0..Y7 hold the tile, two vectors per row; each o step
// loads its 16 A values once for all four rows. Bit-identical per
// element to MatVecTAcc: the coefficient is the first source of
// VMULPS and the running sum the first source of VADDPS, as in the
// scalar `y += g*w`, and a zero coefficient leaves the sum as it was.
TEXT ·matVecT4x16AVX(SB), NOSPLIT, $0-56
	MOVQ y+0(FP), DI
	MOVQ ldy+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ x+32(FP), DX
	MOVQ ldx+40(FP), R10
	MOVQ m+48(FP), CX
	SHLQ $2, R8         // y row stride in bytes
	SHLQ $2, R9         // A row stride in bytes
	SHLQ $2, R10        // x row stride in bytes
	LEAQ (DI)(R8*2), R11 // y row 2
	LEAQ (DX)(R10*2), R12
	ADDQ R10, R12       // x row 3

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (R11), Y4
	VMOVUPS 32(R11), Y5
	VMOVUPS (R11)(R8*1), Y6
	VMOVUPS 32(R11)(R8*1), Y7

	VXORPS Y15, Y15, Y15 // zero, for the skip test

	TESTQ CX, CX
	JZ    tdone

tloop:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	TROW((DX), Y0, Y1)
	TROW((DX)(R10*1), Y2, Y3)
	TROW((DX)(R10*2), Y4, Y5)
	TROW((R12), Y6, Y7)
	ADDQ R9, SI
	ADDQ $4, DX
	ADDQ $4, R12
	DECQ CX
	JNZ  tloop

tdone:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (R11)
	VMOVUPS Y5, 32(R11)
	VMOVUPS Y6, (R11)(R8*1)
	VMOVUPS Y7, 32(R11)(R8*1)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	// need OSXSAVE (ECX bit 27) and AVX (ECX bit 28)
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// and the OS must have enabled XMM+YMM state in XCR0
	MOVL   $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
