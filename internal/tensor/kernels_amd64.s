#include "textflag.h"

// SSE inner kernels for Gemm. SSE2 is the amd64 baseline, so these need no
// CPU detection.
//
// Contract: every result is bit-identical to axpyGo/dotGo in gemm.go.
//   - No FMA. MULPS then ADDPS rounds each lane exactly like the scalar
//     MULSS/ADDSS the Go loops compile to.
//   - No 8-lane (or second) accumulator in dot. Its one 4-lane accumulator
//     X0 holds dotGo's s0..s3, lane l summing the products at l, l+4, l+8,
//     ... in that order. The lanes reduce as ((s0+s1)+s2)+s3, then the
//     scalar tail adds the last len%4 products one at a time.
// Packed loads use MOVUPS: the slices carry no alignment guarantee, and a
// packed SSE op with a memory operand faults on an unaligned address.
// Neither routine checks lengths; the Go wrappers in kernels_amd64.go do.

// func axpySSE(s float32, x, y []float32)
TEXT ·axpySSE(SB), NOSPLIT, $0-56
	MOVSS  s+0(FP), X0
	SHUFPS $0x00, X0, X0 // s in all four lanes
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI

axpyLoop16:
	CMPQ   CX, $16
	JL     axpyLoop4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)
	MOVUPS X6, 16(DI)
	MOVUPS X7, 32(DI)
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    axpyLoop16

axpyLoop4:
	CMPQ   CX, $4
	JL     axpyTail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    axpyLoop4

axpyTail:
	TESTQ CX, CX
	JE    axpyDone
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X1, X5
	MOVSS X5, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   axpyTail

axpyDone:
	RET

// func dotSSE(x, y []float32) float32
TEXT ·dotSSE(SB), NOSPLIT, $0-52
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y_base+24(FP), DI
	XORPS X0, X0 // lanes s0..s3

dotLoop16:
	CMPQ   CX, $16
	JL     dotLoop4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	MULPS  X5, X1
	MULPS  X6, X2
	MULPS  X7, X3
	MULPS  X8, X4
	ADDPS  X1, X0 // in element order: one accumulator, no reassociation
	ADDPS  X2, X0
	ADDPS  X3, X0
	ADDPS  X4, X0
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    dotLoop16

dotLoop4:
	CMPQ   CX, $4
	JL     dotReduce
	MOVUPS (SI), X1
	MOVUPS (DI), X5
	MULPS  X5, X1
	ADDPS  X1, X0
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    dotLoop4

dotReduce:
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1 // s1
	MOVAPS X0, X2
	SHUFPS $0xAA, X2, X2 // s2
	MOVAPS X0, X3
	SHUFPS $0xFF, X3, X3 // s3
	ADDSS  X1, X0
	ADDSS  X2, X0
	ADDSS  X3, X0

dotTail:
	TESTQ CX, CX
	JE    dotDone
	MOVSS (SI), X1
	MOVSS (DI), X5
	MULSS X5, X1
	ADDSS X1, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   dotTail

dotDone:
	MOVSS X0, ret+48(FP)
	RET
