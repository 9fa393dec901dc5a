#include "textflag.h"

// Four lanes per XMM register, one sample per lane, four registers: the
// 16 samples of a group, X0 holding lanes 0-3 and X3 lanes 12-15. Each
// rail sums its
// 12 words in two 64-bit accumulators per pair of lanes: a adds the pair
// (x0, x1) as the word x0 + x1·2³², and b the swapped pair, x1 + x0·2³².
// Mod 2⁶⁴, a − b·2³² = Σx0 and b − a·2³² = Σx1, and those sums are below
// 2³⁶, so they come out exact. X14 and X15 are scratch.

// STEP advances the lanes of x one xorshift32 step and adds the new words
// to the accumulators a and b.
#define STEP(x, a, b) \
	MOVO   x, X14; \
	PSLLL  $13, X14; \
	PXOR   X14, x; \
	MOVO   x, X14; \
	PSRLL  $17, X14; \
	PXOR   X14, x; \
	MOVO   x, X14; \
	PSLLL  $5, X14; \
	PXOR   X14, x; \
	PADDQ  x, a; \
	PSHUFD $0xB1, x, X15; \
	PADDQ  X15, b

// SUMS turns the accumulators of four lanes into their sums, lane by
// lane, and stores them at off(DI). It clobbers a and b.
#define SUMS(a, b, off) \
	MOVO       b, X14; \
	PSLLQ      $32, X14; \
	MOVO       a, X15; \
	PSLLQ      $32, X15; \
	PSUBQ      X14, a; \
	PSUBQ      X15, b; \
	MOVO       a, X14; \
	PUNPCKLQDQ b, X14; \
	MOVOU      X14, off(DI); \
	PUNPCKHQDQ b, a; \
	MOVOU      a, off+16(DI)

// ZERO clears the accumulators, X4-X7 (a) and X8-X11 (b) of X0-X3, and
// sets BX to the 12 steps of a rail.
#define ZERO \
	PXOR X4, X4; \
	PXOR X5, X5; \
	PXOR X6, X6; \
	PXOR X7, X7; \
	PXOR X8, X8; \
	PXOR X9, X9; \
	PXOR X10, X10; \
	PXOR X11, X11; \
	MOVQ $12, BX

// JUMP replaces the state at off(SI) with the state one group later, the
// XOR of four byte-indexed lookups in the jumpGroup table at R8 (see jump).
#define JUMP(off) \
	MOVBLZX off+0(SI), AX; \
	MOVL    0(R8)(AX*4), DX; \
	MOVBLZX off+1(SI), AX; \
	XORL    1024(R8)(AX*4), DX; \
	MOVBLZX off+2(SI), AX; \
	XORL    2048(R8)(AX*4), DX; \
	MOVBLZX off+3(SI), AX; \
	XORL    3072(R8)(AX*4), DX; \
	MOVL    DX, off(SI)

// func wgnSums(lanes *[16]uint32, jump *[4][256]uint32, sums []wgnGroup)
//
// Per group the lanes are loaded into X0-X3, then the next group's starts
// are looked up in scalar registers and stored back over them: the lookups
// depend only on the start states, so they overlap the four registers'
// 24-step chains, and those four chains overlap each other. A group's
// sums are 256 bytes: I then Q, 16 lanes each.
TEXT ·wgnSums(SB), NOSPLIT, $0-40
	MOVQ lanes+0(FP), SI
	MOVQ jump+8(FP), R8
	MOVQ sums_base+16(FP), DI
	MOVQ sums_len+24(FP), CX
	TESTQ CX, CX
	JZ   done

group:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	JUMP(0)
	JUMP(4)
	JUMP(8)
	JUMP(12)
	JUMP(16)
	JUMP(20)
	JUMP(24)
	JUMP(28)
	JUMP(32)
	JUMP(36)
	JUMP(40)
	JUMP(44)
	JUMP(48)
	JUMP(52)
	JUMP(56)
	JUMP(60)
	ZERO

irail:
	STEP(X0, X4, X8)
	STEP(X1, X5, X9)
	STEP(X2, X6, X10)
	STEP(X3, X7, X11)
	DECQ BX
	JNZ  irail
	SUMS(X4, X8, 0)
	SUMS(X5, X9, 32)
	SUMS(X6, X10, 64)
	SUMS(X7, X11, 96)
	ZERO

qrail:
	STEP(X0, X4, X8)
	STEP(X1, X5, X9)
	STEP(X2, X6, X10)
	STEP(X3, X7, X11)
	DECQ BX
	JNZ  qrail
	SUMS(X4, X8, 128)
	SUMS(X5, X9, 160)
	SUMS(X6, X10, 192)
	SUMS(X7, X11, 224)
	ADDQ $256, DI
	DECQ CX
	JNZ  group

done:
	RET
