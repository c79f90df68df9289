// AVX2 microkernel and SSE2 packs for the packed int16 GEMM path. See
// gemm_int16.go for the pair-interleaved layout. VPMADDWD multiplies 16 int16 lanes
// and sums adjacent product pairs into 8 int32 lanes — one instruction
// covers two k steps of half a 16-column panel row. Integer
// arithmetic is exact, so this body agrees with kernelQuadPanelInt16Go
// bit-for-bit with no ordering caveats, and no skip-zero test is needed
// (a zero product adds exact zero).

#include "textflag.h"

// ROW16 multiplies the broadcast k pair of one A row at off(R8) by the
// two B vectors Y8, Y9 of one pair step and adds the pairwise sums into
// row accumulators lo, hi.
#define ROW16(off, lo, hi) \
	VPBROADCASTD off(R8), Y10; \
	VPMADDWD     Y8, Y10, Y11; \
	VPMADDWD     Y9, Y10, Y10; \
	VPADDD       Y11, lo, lo;  \
	VPADDD       Y10, hi, hi

// func gemmQuadPanelInt16AVX2(c *int32, n int, ap, bp *int16, kp2 int)
//
// Accumulates the 4×16 int32 tile at rows c, c+n, c+2n, c+3n (stride n
// int32s) with the product of the packed A quad ap (kp2 steps of 4
// row-pairs) and the packed B panel bp (kp2 steps of 16 column-pairs).
// Y0..Y7 hold the tile, two vectors per row.
TEXT ·gemmQuadPanelInt16AVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ ap+16(FP), R8
	MOVQ bp+24(FP), R9
	MOVQ kp2+32(FP), CX
	SHLQ $2, SI        // row stride in bytes
	LEAQ (DI)(SI*2), R10

	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU (DI)(SI*1), Y2
	VMOVDQU 32(DI)(SI*1), Y3
	VMOVDQU (R10), Y4
	VMOVDQU 32(R10), Y5
	VMOVDQU (R10)(SI*1), Y6
	VMOVDQU 32(R10)(SI*1), Y7

	TESTQ CX, CX
	JZ    done

loop:
	VMOVDQU (R9), Y8       // b pair step: 16 columns × 2 k values
	VMOVDQU 32(R9), Y9
	ROW16(0, Y0, Y1)
	ROW16(4, Y2, Y3)
	ROW16(8, Y4, Y5)
	ROW16(12, Y6, Y7)
	ADDQ $16, R8           // 4 rows × 2 int16
	ADDQ $64, R9           // 16 cols × 2 int16
	DECQ CX
	JNZ  loop

done:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, (DI)(SI*1)
	VMOVDQU Y3, 32(DI)(SI*1)
	VMOVDQU Y4, (R10)
	VMOVDQU Y5, 32(R10)
	VMOVDQU Y6, (R10)(SI*1)
	VMOVDQU Y7, 32(R10)(SI*1)
	VZEROUPPER
	RET

// func packPairStepsSSE2(d, src *int16, n, steps int)
//
// Writes steps pair steps of one full 16-column B panel: step s
// interleaves source rows 2s and 2s+1 (stride n int16s from src)
// column by column into the 32 int16s at d+64s bytes. SSE2 is part
// of the amd64 baseline, so this needs no feature test.
TEXT ·packPairStepsSSE2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ steps+24(FP), CX
	SHLQ $1, DX        // row stride in bytes

pack:
	MOVOU     (SI), X0       // row 2s, columns 0..7
	MOVOU     16(SI), X1     // row 2s, columns 8..15
	MOVOU     (SI)(DX*1), X2 // row 2s+1, columns 0..7
	MOVOU     16(SI)(DX*1), X3
	MOVO      X0, X4
	MOVO      X1, X5
	PUNPCKLWL X2, X0         // columns 0..3, pairs
	PUNPCKHWL X2, X4         // columns 4..7
	PUNPCKLWL X3, X1         // columns 8..11
	PUNPCKHWL X3, X5         // columns 12..15
	MOVOU     X0, (DI)
	MOVOU     X4, 16(DI)
	MOVOU     X1, 32(DI)
	MOVOU     X5, 48(DI)
	ADDQ      $64, DI
	LEAQ      (SI)(DX*2), SI
	DECQ      CX
	JNZ       pack
	RET

// func packQuadPairsSSE2(d, src *int16, k, blocks int)
//
// Writes blocks × 4 pair steps of one full A quad: each row's k pair is
// one 32-bit unit, so four pair steps of the four rows (stride k int16s
// from src) are a 4×4 transpose of 32-bit units into the 64 bytes at
// d+64b.
TEXT ·packQuadPairsSSE2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), DX
	MOVQ blocks+24(FP), CX
	SHLQ $1, DX          // row stride in bytes
	LEAQ (SI)(DX*2), R8  // row 2

transpose:
	MOVOU      (SI), X0       // row 0: pairs 0..3
	MOVOU      (SI)(DX*1), X1 // row 1
	MOVOU      (R8), X2       // row 2
	MOVOU      (R8)(DX*1), X3 // row 3
	MOVO       X0, X4
	MOVO       X2, X5
	PUNPCKLLQ  X1, X0         // r0p0 r1p0 r0p1 r1p1
	PUNPCKHLQ  X1, X4         // r0p2 r1p2 r0p3 r1p3
	PUNPCKLLQ  X3, X2         // r2p0 r3p0 r2p1 r3p1
	PUNPCKHLQ  X3, X5         // r2p2 r3p2 r2p3 r3p3
	MOVO       X0, X1
	MOVO       X4, X3
	PUNPCKLQDQ X2, X0         // pair step 0
	PUNPCKHQDQ X2, X1         // pair step 1
	PUNPCKLQDQ X5, X4         // pair step 2
	PUNPCKHQDQ X5, X3         // pair step 3
	MOVOU      X0, (DI)
	MOVOU      X1, 16(DI)
	MOVOU      X4, 32(DI)
	MOVOU      X3, 48(DI)
	ADDQ       $64, DI
	ADDQ       $16, SI
	ADDQ       $16, R8
	DECQ       CX
	JNZ        transpose
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	// need OSXSAVE (ECX bit 27) and AVX (ECX bit 28)
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// AVX2 is CPUID leaf 7 subleaf 0, EBX bit 5
	MOVL  $7, AX
	MOVL  $0, CX
	CPUID
	ANDL $0x20, BX
	CMPL BX, $0x20
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
