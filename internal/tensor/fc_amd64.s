// AVX/AVX2 bodies of the output-lane FC kernels. See fc.go for the
// panel layout and the determinism contract. The float32 bodies must
// stay bit-identical to fcRowsGo: per output lane one running sum,
// seeded by the caller, receiving the weight times the input one step
// at a time in ascending p, with no FMA and no skip test. Packed-single
// VMULPS / VADDPS are IEEE-exact per lane; VMULPS keeps the weight as
// its first source and VADDPS the running sum, matching the scalar
// `y += w*x`. The int16 bodies are exact integer arithmetic.

#include "textflag.h"

// func fcRowAVX(y *float32, w *float32, x *float32, k int)
//
// Accumulates the 32 outputs at y with one request row: at each of
// the k steps, x[p] broadcast against the four 8-lane weight vectors
// of the panel step (128 bytes) into four independent accumulators.
TEXT ·fcRowAVX(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ k+24(FP), CX

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

	TESTQ CX, CX
	JZ    done

loop:
	VBROADCASTSS (DX), Y4
	VMOVUPS      (SI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VMOVUPS      32(SI), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VMOVUPS      64(SI), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VMOVUPS      96(SI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          loop

done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func fcRows4AVX(y *float32, ldy int, w *float32, x *float32, k int)
//
// Accumulates 16 outputs of four request rows — y rows at stride ldy
// floats, x rows at stride k floats — over the k steps of a half
// panel (two 8-lane weight vectors per 128-byte step), each weight
// load shared by the four rows: eight independent accumulators.
TEXT ·fcRows4AVX(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ ldy+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ k+32(FP), CX
	SHLQ $2, R8        // y row stride in bytes
	MOVQ CX, R11
	SHLQ $2, R11       // x row stride in bytes
	LEAQ (DX)(R11*2), R12
	ADDQ R11, R12      // R12: x row 3
	LEAQ (DI)(R8*2), R13
	ADDQ R8, R13       // R13: y row 3

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (DI)(R8*2), Y4
	VMOVUPS 32(DI)(R8*2), Y5
	VMOVUPS (R13), Y6
	VMOVUPS 32(R13), Y7

	TESTQ CX, CX
	JZ    done4

loop4:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (DX), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y10, Y9, Y12
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (DX)(R11*1), Y13
	VMULPS       Y13, Y8, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y13, Y9, Y15
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS (DX)(R11*2), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y10, Y9, Y12
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (R12), Y13
	VMULPS       Y13, Y8, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y13, Y9, Y15
	VADDPS       Y15, Y7, Y7
	ADDQ         $128, SI
	ADDQ         $4, DX
	ADDQ         $4, R12
	DECQ         CX
	JNZ          loop4

done4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y5, 32(DI)(R8*2)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func fcRowInt16AVX2(c *int32, w *int16, x *int16, kp int)
//
// Accumulates the 32 int32 outputs at c with one request row over kp
// input pairs: the pair (x[2p], x[2p+1]) broadcast to every 32-bit
// lane, VPMADDWD against the four weight vectors of the pair step
// (128 bytes), four independent accumulators.
TEXT ·fcRowInt16AVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ kp+24(FP), CX

	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3

	TESTQ CX, CX
	JZ    idone

iloop:
	VPBROADCASTD (DX), Y4
	VPMADDWD     (SI), Y4, Y5
	VPADDD       Y5, Y0, Y0
	VPMADDWD     32(SI), Y4, Y6
	VPADDD       Y6, Y1, Y1
	VPMADDWD     64(SI), Y4, Y7
	VPADDD       Y7, Y2, Y2
	VPMADDWD     96(SI), Y4, Y8
	VPADDD       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          iloop

idone:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET

// func fcRows4Int16AVX2(c *int32, w *int16, x *int16, ldx int, kp int)
//
// Accumulates 16 int32 outputs of four request rows — c rows at
// stride 32 int32s, x rows at stride ldx int16s — over kp input pairs
// of a half panel (two weight vectors per 128-byte pair step), each
// weight load shared by the four rows.
TEXT ·fcRows4Int16AVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ ldx+24(FP), R11
	MOVQ kp+32(FP), CX
	SHLQ $1, R11       // x row stride in bytes
	LEAQ (DX)(R11*2), R12
	ADDQ R11, R12      // R12: x row 3

	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 128(DI), Y2
	VMOVDQU 160(DI), Y3
	VMOVDQU 256(DI), Y4
	VMOVDQU 288(DI), Y5
	VMOVDQU 384(DI), Y6
	VMOVDQU 416(DI), Y7

	TESTQ CX, CX
	JZ    idone4

iloop4:
	VMOVDQU      (SI), Y8
	VMOVDQU      32(SI), Y9
	VPBROADCASTD (DX), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y0, Y0
	VPMADDWD     Y9, Y10, Y12
	VPADDD       Y12, Y1, Y1
	VPBROADCASTD (DX)(R11*1), Y13
	VPMADDWD     Y8, Y13, Y14
	VPADDD       Y14, Y2, Y2
	VPMADDWD     Y9, Y13, Y15
	VPADDD       Y15, Y3, Y3
	VPBROADCASTD (DX)(R11*2), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y4, Y4
	VPMADDWD     Y9, Y10, Y12
	VPADDD       Y12, Y5, Y5
	VPBROADCASTD (R12), Y13
	VPMADDWD     Y8, Y13, Y14
	VPADDD       Y14, Y6, Y6
	VPMADDWD     Y9, Y13, Y15
	VPADDD       Y15, Y7, Y7
	ADDQ         $128, SI
	ADDQ         $4, DX
	ADDQ         $4, R12
	DECQ         CX
	JNZ          iloop4

idone4:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 128(DI)
	VMOVDQU Y3, 160(DI)
	VMOVDQU Y4, 256(DI)
	VMOVDQU Y5, 288(DI)
	VMOVDQU Y6, 384(DI)
	VMOVDQU Y7, 416(DI)
	VZEROUPPER
	RET
