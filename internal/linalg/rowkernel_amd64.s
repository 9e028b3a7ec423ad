#include "textflag.h"

// func solveRowAVX2(dst []float64, z [][]float64, row []float64)
//
// solveRowGo in AVX2, four columns to a YMM register. Per element it runs
// the Go loop's operations in the Go loop's order: VMULPD rounds each
// product, VSUBPD subtracts it, coefficients k, k+1, k+2, k+3 in turn, and
// VDIVPD divides by the pivot last. There is no FMA and no reordered sum,
// and the columns past the last multiple of four take the VEX scalar forms
// of the same three instructions, so every element is bit for bit the Go
// loop's.
//
// Registers: DI dst, CX n = len(dst), DX n rounded down to a multiple of
// four, BX the next row header of z (24 bytes each), SI the next factor
// coefficient, R8 coefficients left, X13 the pivot, Y12 zero, AX the
// column. The caller has checked every z row against n.
TEXT ·solveRowAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ z_base+24(FP), BX
	MOVQ z_len+32(FP), R8
	MOVQ row_base+48(FP), SI
	VMOVSD (SI)(R8*8), X13
	VXORPD Y12, Y12, Y12
	MOVQ CX, DX
	ANDQ $-4, DX

group:
	// Four coefficients per pass, unless one of them is zero: then each
	// takes the single-coefficient pass, which skips the zero, as
	// solveRowGo's group does.
	CMPQ R8, $4
	JLT  tail
	VCMPPD    $0, (SI), Y12, Y0
	VMOVMSKPD Y0, AX
	TESTL     AX, AX
	JNZ       groupSingles
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	MOVQ 0(BX), R9
	MOVQ 24(BX), R10
	MOVQ 48(BX), R11
	MOVQ 72(BX), R12
	XORQ AX, AX

group4:
	CMPQ AX, DX
	JGE  group1
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R9)(AX*8), Y0, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y2, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  (R12)(AX*8), Y3, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     group4

group1:
	CMPQ AX, CX
	JGE  groupDone
	VMOVSD (DI)(AX*8), X4
	VMULSD (R9)(AX*8), X0, X5
	VSUBSD X5, X4, X4
	VMULSD (R10)(AX*8), X1, X5
	VSUBSD X5, X4, X4
	VMULSD (R11)(AX*8), X2, X5
	VSUBSD X5, X4, X4
	VMULSD (R12)(AX*8), X3, X5
	VSUBSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    group1

groupDone:
	ADDQ $32, SI
	ADDQ $96, BX
	SUBQ $4, R8
	JMP  group

groupSingles:
	MOVQ $4, R13
	JMP  single

tail:
	// Fewer than four coefficients left: each takes the single pass.
	MOVQ  R8, R13
	TESTQ R13, R13
	JZ    divide

single:
	// One coefficient: axpyNeg, which skips a zero (but not a NaN).
	VMOVSD   (SI), X0
	VUCOMISD X12, X0
	JNE      singleRun
	JPS      singleRun
	JMP      singleDone

singleRun:
	VBROADCASTSD (SI), Y0
	MOVQ         0(BX), R9
	XORQ         AX, AX

single4:
	CMPQ AX, DX
	JGE  single1
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R9)(AX*8), Y0, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     single4

single1:
	CMPQ AX, CX
	JGE  singleDone
	VMOVSD (DI)(AX*8), X4
	VMULSD (R9)(AX*8), X0, X5
	VSUBSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    single1

singleDone:
	ADDQ $8, SI
	ADDQ $24, BX
	DECQ R8
	DECQ R13
	JNZ  single
	JMP  group

divide:
	// dst[j] /= pivot: a divide, not a multiply by the reciprocal.
	VBROADCASTSD X13, Y13
	XORQ         AX, AX

divide4:
	CMPQ AX, DX
	JGE  divide1
	VMOVUPD (DI)(AX*8), Y4
	VDIVPD  Y13, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     divide4

divide1:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X4
	VDIVSD X13, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    divide1

done:
	VZEROUPPER
	RET
