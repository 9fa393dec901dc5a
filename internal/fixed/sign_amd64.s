#include "textflag.h"

// Each step loads four samples, splits them into [re0, re1], [re2, re3],
// [im0, im1] and [im2, im3], multiplies by FullScale (X14) and compares
// ≤ −0.5 (X15): the compare is false for NaN, as in negative. MOVMSKPD
// takes the two lanes' results as two bits, and a rail's four bits enter
// its word at the top, w = w>>4 | bits<<60, so after 16 steps sample k
// sits at bit k.

// func signWords(src []complex128, signI, signQ []uint64)
TEXT ·signWords(SB), NOSPLIT, $0-72
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ signI_base+24(FP), DI
	MOVQ signQ_base+48(FP), DX
	SHRQ $6, CX
	JZ   done
	MOVQ $0x40dfffc000000000, AX // 32767.0
	MOVQ AX, X14
	UNPCKLPD X14, X14
	MOVQ $0xbfe0000000000000, AX // -0.5
	MOVQ AX, X15
	UNPCKLPD X15, X15

word:
	MOVQ $16, BX

step:
	MOVUPD   0(SI), X0
	MOVUPD   16(SI), X1
	MOVUPD   32(SI), X2
	MOVUPD   48(SI), X3
	MOVAPD   X0, X4
	UNPCKLPD X1, X0
	UNPCKHPD X1, X4
	MOVAPD   X2, X5
	UNPCKLPD X3, X2
	UNPCKHPD X3, X5
	MULPD    X14, X0
	MULPD    X14, X2
	MULPD    X14, X4
	MULPD    X14, X5
	CMPPD    X15, X0, $2
	CMPPD    X15, X2, $2
	CMPPD    X15, X4, $2
	CMPPD    X15, X5, $2
	MOVMSKPD X0, AX
	MOVMSKPD X2, R10
	SHLQ     $2, R10
	ORQ      R10, AX
	SHRQ     $4, R8
	SHLQ     $60, AX
	ORQ      AX, R8
	MOVMSKPD X4, AX
	MOVMSKPD X5, R10
	SHLQ     $2, R10
	ORQ      R10, AX
	SHRQ     $4, R9
	SHLQ     $60, AX
	ORQ      AX, R9
	ADDQ     $64, SI
	DECQ     BX
	JNZ      step
	MOVQ     R8, 0(DI)
	MOVQ     R9, 0(DX)
	ADDQ     $8, DI
	ADDQ     $8, DX
	DECQ     CX
	JNZ      word

done:
	RET
