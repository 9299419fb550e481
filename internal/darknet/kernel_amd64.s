//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels under the three GEMM shapes. Neither uses FMA:
// every product is rounded to float32 by VMULPS before VADDPS adds it,
// in ascending p, so each output element sees exactly the scalar
// reference's operations in the scalar reference's order.

// tailMask<> + 4*(8-w) is a lane mask with the low w lanes set.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// MADD accumulates a[p] (broadcast in Y8) times eight B floats at
// off(R12) into acc, through tmp.
#define MADD(off, acc, tmp) \
	VMULPS off(R12), Y8, tmp; \
	VADDPS tmp, acc, acc

// func axpyRowAVX2(c, a *float32, aStride int, b *float32, bStride, k, w int)
//
// c[0:w] += sum over p in [0,k) of a[p*aStride] * b[p*bStride : p*bStride+w],
// skipping every p whose a element is +-0 (the reference zero-skip).
// The C row segment lives in registers across the whole p sweep: 64
// floats at a time, then 16, then a masked tail of up to 8. Requires
// k >= 1.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ bStride+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ w+48(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9

w64:
	CMPQ R10, $64
	JLT  w16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ CX, R13

p64:
	MOVL (R11), AX
	SHLL $1, AX
	JZ   skip64
	VBROADCASTSS (R11), Y8
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
	MADD(64, Y2, Y11)
	MADD(96, Y3, Y12)
	MADD(128, Y4, Y13)
	MADD(160, Y5, Y14)
	MADD(192, Y6, Y15)
	MADD(224, Y7, Y9)

skip64:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  p64
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, R10
	JMP  w64

w16:
	CMPQ R10, $16
	JLT  wtail
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ CX, R13

p16:
	MOVL (R11), AX
	SHLL $1, AX
	JZ   skip16
	VBROADCASTSS (R11), Y8
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)

skip16:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  p16
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, R10
	JMP  w16

wtail:
	TESTQ R10, R10
	JZ    done
	MOVQ  $8, AX
	CMPQ  R10, AX
	CMOVQLT R10, AX            // AX = lanes this round = min(w, 8)
	MOVQ  $8, BX
	SUBQ  AX, BX
	LEAQ  tailMask<>(SB), R13
	VMOVDQU (R13)(BX*4), Y15
	VMASKMOVPS (DI), Y15, Y0
	MOVQ SI, R11
	MOVQ DX, R12
	MOVQ CX, R13

ptail:
	MOVL (R11), BX
	SHLL $1, BX
	JZ   skiptail
	VBROADCASTSS (R11), Y8
	VMASKMOVPS (R12), Y15, Y9
	VMULPS Y9, Y8, Y9
	VADDPS Y9, Y0, Y0

skiptail:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  ptail
	VMASKMOVPS Y0, Y15, (DI)
	LEAQ (DI)(AX*4), DI
	LEAQ (DX)(AX*4), DX
	SUBQ AX, R10
	JMP  wtail

done:
	VZEROUPPER
	RET

// DOT accumulates the packed A lanes (Y8) times one broadcast B float
// into acc, through tmp.
#define DOT(baddr, acc, tmp) \
	VBROADCASTSS baddr, tmp; \
	VMULPS tmp, Y8, tmp; \
	VADDPS tmp, acc, acc

// func dotPanelAVX2(pk, b *float32, bStride, k int, out *float32)
//
// Eight rows of A (packed lane-interleaved: pk[p*8+l] = A[l][p]) against
// eight rows of B (row j at b[j*bStride:]): out[j*8+l] = sum over
// ascending p of A[l][p]*B[j][p], each sum starting from zero. Lanes
// are different output rows, so no dot product is ever split.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-40
	MOVQ pk+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ bStride+16(FP), R8
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DI
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9        // 3 rows
	LEAQ (R8)(R8*4), R10       // 5 rows
	LEAQ (R9)(R8*4), R11       // 7 rows
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ    dotdone

dotloop:
	VMOVUPS (SI), Y8
	DOT((DX), Y0, Y9)
	DOT((DX)(R8*1), Y1, Y10)
	DOT((DX)(R8*2), Y2, Y11)
	DOT((DX)(R9*1), Y3, Y12)
	DOT((DX)(R8*4), Y4, Y13)
	DOT((DX)(R10*1), Y5, Y14)
	DOT((DX)(R9*2), Y6, Y15)
	DOT((DX)(R11*1), Y7, Y9)
	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  dotloop

dotdone:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
