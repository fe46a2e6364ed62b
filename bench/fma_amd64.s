//go:build amd64

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaAVX(n int, c *[2]float64) float64
//
// Ten accumulators cover the FMA latency on two ports, so the loop runs at
// the ports' throughput: 80 flops per iteration.
TEXT ·fmaAVX(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ c+8(FP), AX
	VBROADCASTSD (AX), Y10
	VBROADCASTSD 8(AX), Y11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	TESTQ CX, CX
	JLE   done

loop:
	VFMADD213PD Y11, Y10, Y0
	VFMADD213PD Y11, Y10, Y1
	VFMADD213PD Y11, Y10, Y2
	VFMADD213PD Y11, Y10, Y3
	VFMADD213PD Y11, Y10, Y4
	VFMADD213PD Y11, Y10, Y5
	VFMADD213PD Y11, Y10, Y6
	VFMADD213PD Y11, Y10, Y7
	VFMADD213PD Y11, Y10, Y8
	VFMADD213PD Y11, Y10, Y9
	DECQ CX
	JNZ  loop

done:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y9, Y8, Y8
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4
	VADDPD Y8, Y0, Y0
	VADDPD Y4, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VZEROUPPER
	MOVSD X0, ret+16(FP)
	RET
