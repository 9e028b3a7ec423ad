#include "textflag.h"

// func fillLanesAVX2(vec *[rngLen]uint64, lanes *[3][4]uint64, cooked *[rngLen]uint64, step uint64)
//
// fillLanesGo in AVX2. Y0, Y1 and Y2 hold the <<40, <<20 and plain parts
// of four register words; each of the 151 groups XORs them with the
// cooked words into four register words, then steps every lane: VPMULUDQ
// multiplies the low 32 bits of each (a lane is below 2³¹) by step, and
// two folds p&M + p>>31 reduce the product mod M = 2³¹−1 as mulmod does.
//
// Registers: DI the next register word, DX the next cooked word, CX groups
// left, Y3 step in every lane, Y4 M in every lane.
TEXT ·fillLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ vec+0(FP), DI
	MOVQ lanes+8(FP), SI
	MOVQ cooked+16(FP), DX
	MOVQ step+24(FP), X3
	VPBROADCASTQ X3, Y3
	VPCMPEQQ Y4, Y4, Y4
	VPSRLQ   $33, Y4, Y4
	VMOVDQU  0(SI), Y0
	VMOVDQU  32(SI), Y1
	VMOVDQU  64(SI), Y2
	MOVQ     $151, CX

group:
	VPSLLQ  $40, Y0, Y5
	VPSLLQ  $20, Y1, Y6
	VPXOR   Y6, Y5, Y5
	VPXOR   Y2, Y5, Y5
	VPXOR   (DX), Y5, Y5
	VMOVDQU Y5, (DI)

	VPMULUDQ Y3, Y0, Y0
	VPMULUDQ Y3, Y1, Y1
	VPMULUDQ Y3, Y2, Y2
	VPSRLQ   $31, Y0, Y5
	VPSRLQ   $31, Y1, Y6
	VPSRLQ   $31, Y2, Y7
	VPAND    Y4, Y0, Y0
	VPAND    Y4, Y1, Y1
	VPAND    Y4, Y2, Y2
	VPADDQ   Y5, Y0, Y0
	VPADDQ   Y6, Y1, Y1
	VPADDQ   Y7, Y2, Y2
	VPSRLQ   $31, Y0, Y5
	VPSRLQ   $31, Y1, Y6
	VPSRLQ   $31, Y2, Y7
	VPAND    Y4, Y0, Y0
	VPAND    Y4, Y1, Y1
	VPAND    Y4, Y2, Y2
	VPADDQ   Y5, Y0, Y0
	VPADDQ   Y6, Y1, Y1
	VPADDQ   Y7, Y2, Y2

	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  group

	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VZEROUPPER
	RET
