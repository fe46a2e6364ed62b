//go:build amd64

#include "textflag.h"

// func panelDots4x8(l0, l1, l2, l3, p *float64, nk int, out *[32]float64)
//
// A 4×8 tile of dot products for the left-looking Cholesky panel: lane
// (q, c) sums lq[k]·p[8k+c] over k = 0 … nk−1. Y(2q) holds columns 0–3 of
// row q and Y(2q+1) columns 4–7. Each step broadcasts one entry of each row
// against the packed panel row k. VMULPD then VADDPD round the product and
// the sum separately, in ascending k from zero, as the Go loop does; fused
// multiply-add rounds once and would change the factor's bits.
TEXT ·panelDots4x8(SB), NOSPLIT, $0-56
	MOVQ l0+0(FP), R8
	MOVQ l1+8(FP), R9
	MOVQ l2+16(FP), R10
	MOVQ l3+24(FP), R11
	MOVQ p+32(FP), SI
	MOVQ nk+40(FP), CX
	MOVQ out+48(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (R8)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (R9)(AX*8), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R11)(AX*8), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET
