#include "textflag.h"

// Four outputs per group, one XMM accumulator each: X0-X3 hold [re, im]
// of outputs 0-3, and each tap adds the window sample [re, im] times the
// tap stored as [c, c], so each lane keeps its own rail's sum. R8-R11 point
// at the four windows and R12-R15 at their banks; BX indexes both, from
// the newest tap down to the oldest, the order dot sums in. The frame
// holds the byte strides and bounds STEP reads, set once per call.

// STEP advances the next output's window (SI) and bank (DX): wstep
// samples and pstep banks, then, when the bank has passed the last one,
// one bank span back and one sample on. AX and BX are scratch.
#define STEP \
	ADDQ    wstep16-32(SP), SI; \
	ADDQ    pstepB-24(SP), DX; \
	LEAQ    16(SI), AX; \
	MOVQ    DX, BX; \
	SUBQ    span-16(SP), BX; \
	CMPQ    DX, end-8(SP); \
	CMOVQCC BX, DX; \
	CMOVQCC AX, SI

// TAP adds the product of the sample at BX(w) and the tap at BX(b) to acc,
// with x and c scratch.
#define TAP(w, b, acc, x, c) \
	MOVUPD (w)(BX*1), x; \
	MOVUPD (b)(BX*1), c; \
	MULPD  c, x; \
	ADDPD  x, acc

// func resampleDots(out Samples, win *complex128, banks [][2]float64, p, taps, wstep, pstep int)
TEXT ·resampleDots(SB), NOSPLIT, $40-88
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $2, CX
	JZ   done
	MOVQ win+24(FP), SI
	MOVQ banks_base+32(FP), DX
	MOVQ banks_len+40(FP), AX
	SHLQ $4, AX
	MOVQ AX, span-16(SP)
	ADDQ DX, AX
	MOVQ AX, end-8(SP)
	MOVQ taps+64(FP), BX
	SHLQ $4, BX
	MOVQ BX, taps16-40(SP)
	MOVQ p+56(FP), AX
	IMULQ BX, AX
	ADDQ AX, DX
	MOVQ pstep+80(FP), AX
	IMULQ BX, AX
	MOVQ AX, pstepB-24(SP)
	MOVQ wstep+72(FP), AX
	SHLQ $4, AX
	MOVQ AX, wstep16-32(SP)

group:
	MOVQ SI, R8
	MOVQ DX, R12
	STEP
	MOVQ SI, R9
	MOVQ DX, R13
	STEP
	MOVQ SI, R10
	MOVQ DX, R14
	STEP
	MOVQ SI, R11
	MOVQ DX, R15
	STEP
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  taps16-40(SP), BX

tap:
	SUBQ $16, BX
	TAP(R8, R12, X0, X4, X5)
	TAP(R9, R13, X1, X6, X7)
	TAP(R10, R14, X2, X8, X9)
	TAP(R11, R15, X3, X10, X11)
	JNZ  tap
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	DECQ   CX
	JNZ    group

done:
	RET
