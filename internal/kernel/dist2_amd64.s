//go:build amd64

#include "textflag.h"

// func dist2x4Lanes(x, y0, y1, y2, y3 *float64, nq int, out *[16]float64)
//
// Four rows against one query in a single pass: the x load is shared and
// the four accumulator chains (Y0..Y3) interleave, hiding VADDPD latency.
// Lane l of each accumulator holds the partial sum over dimensions
// i ≡ l (mod 4) — the same convention as the scalar dist2Lanes — and the
// final reduction happens in Go, so the result is bitwise-identical to the
// scalar path. VSUBPD/VMULPD/VADDPD are used instead of FMA: fused
// multiply-add rounds once, which would diverge from scalar results.
TEXT ·dist2x4Lanes(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ y0+8(FP), R8
	MOVQ y1+16(FP), R9
	MOVQ y2+24(FP), R10
	MOVQ y3+32(FP), R11
	MOVQ nq+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (R8)(AX*8), Y5
	VSUBPD  Y5, Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VMOVUPD (R9)(AX*8), Y6
	VSUBPD  Y6, Y4, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMOVUPD (R10)(AX*8), Y7
	VSUBPD  Y7, Y4, Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y2, Y2
	VMOVUPD (R11)(AX*8), Y8
	VSUBPD  Y8, Y4, Y8
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	JMP     loop

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func dist2Row8(x, y0, y1, y2, y3, y4, y5, y6, y7 *float64, d int, out *float64)
//
// Full eight-row distance kernel: the vector body of dist2x4Lanes widened to
// eight rows, plus the scalar tail dimensions and the (s0+s1)+(s2+s3) lane
// reduction, all in the exact operation order of the scalar dist2, writing
// the eight finished squared distances to out. Doing the epilogue here saves
// the per-call round-trip of 32 partial sums through memory on the hot path.
TEXT ·dist2Row8(SB), NOSPLIT, $0-88
	MOVQ x+0(FP), SI
	MOVQ y0+8(FP), R8
	MOVQ y1+16(FP), R9
	MOVQ y2+24(FP), R10
	MOVQ y3+32(FP), R11
	MOVQ y4+40(FP), R12
	MOVQ y5+48(FP), R13
	MOVQ y6+56(FP), R14
	MOVQ y7+64(FP), R15
	MOVQ d+72(FP), BX
	MOVQ out+80(FP), DI
	MOVQ BX, CX
	ANDQ $-4, CX          // nq = d &^ 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

rowloop:
	CMPQ AX, CX
	JGE  rowtails
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (R8)(AX*8), Y9
	VSUBPD  Y9, Y8, Y9
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y0, Y0
	VMOVUPD (R9)(AX*8), Y10
	VSUBPD  Y10, Y8, Y10
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y1, Y1
	VMOVUPD (R10)(AX*8), Y11
	VSUBPD  Y11, Y8, Y11
	VMULPD  Y11, Y11, Y11
	VADDPD  Y11, Y2, Y2
	VMOVUPD (R11)(AX*8), Y12
	VSUBPD  Y12, Y8, Y12
	VMULPD  Y12, Y12, Y12
	VADDPD  Y12, Y3, Y3
	VMOVUPD (R12)(AX*8), Y13
	VSUBPD  Y13, Y8, Y13
	VMULPD  Y13, Y13, Y13
	VADDPD  Y13, Y4, Y4
	VMOVUPD (R13)(AX*8), Y14
	VSUBPD  Y14, Y8, Y14
	VMULPD  Y14, Y14, Y14
	VADDPD  Y14, Y5, Y5
	VMOVUPD (R14)(AX*8), Y15
	VSUBPD  Y15, Y8, Y15
	VMULPD  Y15, Y15, Y15
	VADDPD  Y15, Y6, Y6
	VMOVUPD (R15)(AX*8), Y9
	VSUBPD  Y9, Y8, Y9
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y7, Y7
	ADDQ    $4, AX
	JMP     rowloop

// Per row: save the high lanes [s2,s3] before the scalar tail clobbers the
// ymm upper half (VADDSD zeroes bits 128..255), run the tail into lane s0,
// then reduce exactly as (s0+s1)+(s2+s3).
rowtails:
	VEXTRACTF128 $1, Y0, X8
	MOVQ CX, DX
tail0:
	CMPQ DX, BX
	JGE  reduce0
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R8)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X0, X0
	INCQ DX
	JMP  tail0
reduce0:
	VUNPCKHPD X0, X0, X9
	VADDSD X9, X0, X0
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X0, X0
	VMOVSD X0, (DI)

	VEXTRACTF128 $1, Y1, X8
	MOVQ CX, DX
tail1:
	CMPQ DX, BX
	JGE  reduce1
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R9)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X1, X1
	INCQ DX
	JMP  tail1
reduce1:
	VUNPCKHPD X1, X1, X9
	VADDSD X9, X1, X1
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X1, X1
	VMOVSD X1, 8(DI)

	VEXTRACTF128 $1, Y2, X8
	MOVQ CX, DX
tail2:
	CMPQ DX, BX
	JGE  reduce2
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R10)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X2, X2
	INCQ DX
	JMP  tail2
reduce2:
	VUNPCKHPD X2, X2, X9
	VADDSD X9, X2, X2
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X2, X2
	VMOVSD X2, 16(DI)

	VEXTRACTF128 $1, Y3, X8
	MOVQ CX, DX
tail3:
	CMPQ DX, BX
	JGE  reduce3
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R11)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X3, X3
	INCQ DX
	JMP  tail3
reduce3:
	VUNPCKHPD X3, X3, X9
	VADDSD X9, X3, X3
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X3, X3
	VMOVSD X3, 24(DI)

	VEXTRACTF128 $1, Y4, X8
	MOVQ CX, DX
tail4:
	CMPQ DX, BX
	JGE  reduce4
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R12)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X4, X4
	INCQ DX
	JMP  tail4
reduce4:
	VUNPCKHPD X4, X4, X9
	VADDSD X9, X4, X4
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X4, X4
	VMOVSD X4, 32(DI)

	VEXTRACTF128 $1, Y5, X8
	MOVQ CX, DX
tail5:
	CMPQ DX, BX
	JGE  reduce5
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R13)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X5, X5
	INCQ DX
	JMP  tail5
reduce5:
	VUNPCKHPD X5, X5, X9
	VADDSD X9, X5, X5
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X5, X5
	VMOVSD X5, 40(DI)

	VEXTRACTF128 $1, Y6, X8
	MOVQ CX, DX
tail6:
	CMPQ DX, BX
	JGE  reduce6
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R14)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X6, X6
	INCQ DX
	JMP  tail6
reduce6:
	VUNPCKHPD X6, X6, X9
	VADDSD X9, X6, X6
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X6, X6
	VMOVSD X6, 48(DI)

	VEXTRACTF128 $1, Y7, X8
	MOVQ CX, DX
tail7:
	CMPQ DX, BX
	JGE  reduce7
	VMOVSD (SI)(DX*8), X9
	VSUBSD (R15)(DX*8), X9, X9
	VMULSD X9, X9, X9
	VADDSD X9, X7, X7
	INCQ DX
	JMP  tail7
reduce7:
	VUNPCKHPD X7, X7, X9
	VADDSD X9, X7, X7
	VUNPCKHPD X8, X8, X9
	VADDSD X9, X8, X8
	VADDSD X8, X7, X7
	VMOVSD X7, 56(DI)

	VZEROUPPER
	RET

// func dist2Block(q, blk *float64, d, w int, out *float64)
//
// Dimension-major block kernel: row j of the block holds coordinate j of
// its w points, so one VMOVUPD loads four points' coordinate j and the
// query coordinate is broadcast against it. Each group of four points keeps
// dist2's four lanes in four accumulators (Y0..Y3, lane l taking dimensions
// j ≡ l mod 4 below d &^ 3, tail dimensions going to Y0), so the lane
// reduction (s0+s1)+(s2+s3) is three vertical VADDPDs and the four finished
// distances are stored at once. No FMA, as in dist2x4Lanes.
TEXT ·dist2Block(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ blk+8(FP), R8
	MOVQ d+16(FP), BX
	MOVQ w+24(FP), R9
	MOVQ out+32(FP), DI
	MOVQ BX, CX
	ANDQ $-4, CX          // nq = d &^ 3
	SHLQ $3, R9           // one block row in bytes
	LEAQ (R9)(R9*2), R14  // three rows
	LEAQ (R9)(R9*1), R10
	SHLQ $1, R10          // four rows
	XORQ R11, R11         // byte offset of the group within a row

group:
	CMPQ R11, R9
	JGE  blockdone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (R8)(R11*1), DX  // the group's slots in row 0
	XORQ AX, AX

body:
	CMPQ AX, CX
	JGE  tail
	VBROADCASTSD (SI)(AX*8), Y4
	VMOVUPD (DX), Y5
	VSUBPD  Y5, Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VBROADCASTSD 8(SI)(AX*8), Y6
	VMOVUPD (DX)(R9*1), Y7
	VSUBPD  Y7, Y6, Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y1, Y1
	VBROADCASTSD 16(SI)(AX*8), Y8
	VMOVUPD (DX)(R9*2), Y9
	VSUBPD  Y9, Y8, Y9
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y2, Y2
	VBROADCASTSD 24(SI)(AX*8), Y10
	VMOVUPD (DX)(R14*1), Y11
	VSUBPD  Y11, Y10, Y11
	VMULPD  Y11, Y11, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ    R10, DX
	ADDQ    $4, AX
	JMP     body

tail:
	CMPQ AX, BX
	JGE  reduce
	VBROADCASTSD (SI)(AX*8), Y4
	VMOVUPD (DX), Y5
	VSUBPD  Y5, Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    R9, DX
	INCQ    AX
	JMP     tail

reduce:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ    $32, R11
	JMP     group

blockdone:
	VZEROUPPER
	RET
