#include "textflag.h"

// func hasPOPCNT() bool
TEXT ·hasPOPCNT(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $23, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// DOT sets p = popcount(x AND m0) + 2·popcount(x AND m1) for x = hist XOR
// neg: Σ s·c = base − 2p is one bank's dot product with one sign history
// (see bitplanes). It clobbers AX and BX.
#define DOT(hist, neg, m0, m1, p) \
	MOVQ hist, AX; \
	XORQ neg, AX; \
	MOVQ AX, BX; \
	ANDQ m0, BX; \
	POPCNTQ BX, BX; \
	ANDQ m1, AX; \
	POPCNTQ AX, AX; \
	LEAQ (BX)(AX*2), p

// func popcntWords(signI, signQ, level []uint64, carryI, carryQ uint64, b *popcntBanks)
//
// Each word runs its 64 samples newest first. The window of sample k is
// the 64 sign bits ending at it; the window of sample k−1 is that window
// shifted up one with bit k of the previous word shifted in, so ADC steps
// the I and Q histories (R8, R9) from the previous words (R10, R11), and
// ADC also shifts each comparison's carry, metric < threshold, into R12,
// which is inverted into the level word at the end.
TEXT ·popcntWords(SB), NOSPLIT, $8-96
	MOVQ b+88(FP), DI
	MOVQ 0(DI), SI   // negI
	MOVQ 8(DI), R14  // negQ
	MOVQ carryI+72(FP), R10
	MOVQ carryQ+80(FP), R11
	MOVQ $0, w-8(SP)

word:
	MOVQ w-8(SP), DX
	CMPQ DX, signI_len+8(FP)
	JGE  done
	MOVQ signI_base+0(FP), AX
	MOVQ (AX)(DX*8), R8
	MOVQ signQ_base+24(FP), AX
	MOVQ (AX)(DX*8), R9
	XORQ R12, R12
	MOVQ $64, R13

sample:
	DOT(R8, SI, 16(DI), 24(DI), CX)  // I history, I bank
	DOT(R9, R14, 32(DI), 40(DI), DX) // Q history, Q bank
	SUBQ CX, DX
	ADDQ DX, DX
	ADDQ 48(DI), DX                  // re = (bi − bq) + 2(pQQ − pII)
	IMULQ DX, DX
	DOT(R9, SI, 16(DI), 24(DI), CX)  // Q history, I bank
	DOT(R8, R14, 32(DI), 40(DI), BX) // I history, Q bank
	ADDQ BX, CX
	ADDQ CX, CX
	MOVQ 56(DI), AX
	SUBQ CX, AX                      // im = (bi + bq) − 2(pQI + pIQ)
	IMULQ AX, AX
	ADDQ AX, DX                      // metric = re² + im²
	CMPQ DX, 64(DI)
	ADCQ R12, R12
	SHLQ $1, R10
	ADCQ R8, R8
	SHLQ $1, R11
	ADCQ R9, R9
	DECQ R13
	JNZ  sample

	NOTQ R12
	MOVQ w-8(SP), DX
	MOVQ level_base+48(FP), AX
	MOVQ R12, (AX)(DX*8)
	MOVQ signI_base+0(FP), AX
	MOVQ (AX)(DX*8), R10
	MOVQ signQ_base+24(FP), AX
	MOVQ (AX)(DX*8), R11
	INCQ DX
	MOVQ DX, w-8(SP)
	JMP  word

done:
	RET
