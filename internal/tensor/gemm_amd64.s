// AVX microkernel for the packed GEMM path. See gemm.go for the
// layout and the determinism contract; this body must stay
// bit-identical to kernelQuadPanelGo: per output lane one running sum,
// products added in ascending p order, A rows skipped on `av != 0`
// (NEQ_UQ, so NaN lanes are never skipped). Packed-single VMULPS /
// VADDPS are IEEE-exact per lane, so lane placement does not change
// results. Operand order keeps the running sum as the first source of
// VADDPS and the A value as the first source of VMULPS, matching the
// NaN-propagation of the scalar MULSS/ADDSS sequence.

#include "textflag.h"

// func gemmQuadPanelAVX(c *float32, n int, ap, bp *float32, k int)
//
// Accumulates the 4×8 tile at rows c, c+n, c+2n, c+3n (stride n
// floats) with the product of the packed A quad ap (k steps of 4
// lanes) and the packed B panel bp (k steps of 8 lanes).
TEXT ·gemmQuadPanelAVX(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ ap+16(FP), R8
	MOVQ bp+24(FP), R9
	MOVQ k+32(FP), CX
	SHLQ $2, SI        // row stride in bytes

	// load the C tile: Y0..Y3 hold the four running-sum rows
	MOVQ    DI, R10
	VMOVUPS (R10), Y0
	ADDQ    SI, R10
	VMOVUPS (R10), Y1
	ADDQ    SI, R10
	VMOVUPS (R10), Y2
	ADDQ    SI, R10
	VMOVUPS (R10), Y3

	VXORPS X8, X8, X8  // zero, for the skip test

loop:
	TESTQ CX, CX
	JZ    done
	VMOVUPS (R9), Y4       // b panel step: 8 columns
	VMOVUPS (R8), X5       // a quad step: 4 row lanes
	VCMPPS  $4, X8, X5, X6 // NEQ_UQ: lane != 0, true for NaN
	VMOVMSKPS X6, AX
	CMPL    AX, $15
	JNE     mixed

	// dense step: all four rows contribute
	VBROADCASTSS (R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS 4(R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y1, Y1
	VBROADCASTSS 8(R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y2, Y2
	VBROADCASTSS 12(R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y3, Y3

next:
	ADDQ $16, R8
	ADDQ $32, R9
	DECQ CX
	JMP  loop

mixed:
	// sparse step: only rows whose A lane is nonzero contribute
	TESTL $1, AX
	JZ    m1
	VBROADCASTSS (R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
m1:
	TESTL $2, AX
	JZ    m2
	VBROADCASTSS 4(R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y1, Y1
m2:
	TESTL $4, AX
	JZ    m3
	VBROADCASTSS 8(R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y2, Y2
m3:
	TESTL $8, AX
	JZ    next
	VBROADCASTSS 12(R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y3, Y3
	JMP  next

done:
	MOVQ    DI, R10
	VMOVUPS Y0, (R10)
	ADDQ    SI, R10
	VMOVUPS Y1, (R10)
	ADDQ    SI, R10
	VMOVUPS Y2, (R10)
	ADDQ    SI, R10
	VMOVUPS Y3, (R10)
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
