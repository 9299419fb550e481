//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels under the three GEMM shapes, an AVX-512 twin of
// the axpy kernel under gemm, gemmTA and col2im's row adds, and AVX2
// kernels under the layer passes' glue (bias + leaky activation, the
// leaky gradient with its bias sums, the 2×2 max-pool). None uses FMA: every product is
// rounded to float32 by VMULPS before VADDPS adds it, in ascending p,
// so each output element sees exactly the scalar reference's
// operations in the scalar reference's order. The GEMM kernels find
// each B row through a table of offsets, so one kernel reads a
// row-major B or a convolution's shifted rows of a zero-padded input
// plane.

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

// func axpyRowAVX2(c, a *float32, aStride int, b *float32, boff *int, k, w int, write bool)
//
// c[0:w] += sum over p in [0,k) of a[p*aStride] * b[boff[p] : boff[p]+w],
// skipping every p whose a element is +-0 (the reference zero-skip).
// B row p starts boff[p] floats into b: p*n for a row-major B, a kernel
// tap's shift into a zero-padded input plane for a convolution.
// The C row segment lives in registers across the whole p sweep: 64
// floats at a time, then 16, then a masked tail of up to 8. With write
// set the registers start at +0 instead of C's values, which is the
// same sum C would get from being cleared first. Requires k >= 1.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-57
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ boff+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ w+48(FP), R10
	SHLQ $2, R8

w64:
	CMPQ R10, $64
	JLT  w16
	CMPB write+56(FP), $0
	JNE  zero64
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	JMP  sweep64

zero64:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

sweep64:
	MOVQ SI, R11
	MOVQ R9, R14
	MOVQ CX, R13

p64:
	MOVL (R11), AX
	SHLL $1, AX
	JZ   skip64
	MOVQ (R14), R12
	LEAQ (DX)(R12*4), R12
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
	ADDQ $8, R14
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
	CMPB write+56(FP), $0
	JNE  zero16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	JMP  sweep16

zero16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

sweep16:
	MOVQ SI, R11
	MOVQ R9, R14
	MOVQ CX, R13

p16:
	MOVL (R11), AX
	SHLL $1, AX
	JZ   skip16
	MOVQ (R14), R12
	LEAQ (DX)(R12*4), R12
	VBROADCASTSS (R11), Y8
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)

skip16:
	ADDQ R8, R11
	ADDQ $8, R14
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
	VXORPS  Y0, Y0, Y0
	CMPB    write+56(FP), $0
	JNE     sweeptail
	VMASKMOVPS (DI), Y15, Y0

sweeptail:
	MOVQ SI, R11
	MOVQ R9, R14
	MOVQ CX, R13

ptail:
	MOVL (R11), BX
	SHLL $1, BX
	JZ   skiptail
	MOVQ (R14), R12
	LEAQ (DX)(R12*4), R12
	VBROADCASTSS (R11), Y8
	VMASKMOVPS (R12), Y15, Y9
	VMULPS Y9, Y8, Y9
	VADDPS Y9, Y0, Y0

skiptail:
	ADDQ R8, R11
	ADDQ $8, R14
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

// MADD16 accumulates a[p] (broadcast in Z8) times sixteen B floats at
// off(R12) into acc, through tmp.
#define MADD16(off, acc, tmp) \
	VMULPS off(R12), Z8, tmp; \
	VADDPS tmp, acc, acc

// MASKMADD16 is MADD16 on the lanes of mask k: the others load no B
// float and are never stored.
#define MASKMADD16(off, k, acc, tmp) \
	VMOVUPS.Z off(R12), k, tmp; \
	VMULPS    tmp, Z8, tmp; \
	VADDPS    tmp, acc, acc

// func axpyRowAVX512(c, a *float32, aStride int, b *float32, boff *int, k, w int, write bool)
//
// axpyRowAVX2 at sixteen lanes: the same sums, zero-skip and write
// contract, with the C row segment held 128 floats at a time in eight
// ZMM registers, then up to 64 in four, under K masks that cover the
// lanes left. Requires k >= 1.
TEXT ·axpyRowAVX512(SB), NOSPLIT, $0-57
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ boff+32(FP), R9
	MOVQ w+48(FP), R10
	SHLQ $2, R8

z128:
	CMPQ R10, $128
	JLT  z64
	CMPB write+56(FP), $0
	JNE  zero128
	VMOVUPS 0(DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS 256(DI), Z4
	VMOVUPS 320(DI), Z5
	VMOVUPS 384(DI), Z6
	VMOVUPS 448(DI), Z7
	JMP  sweep128

zero128:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

sweep128:
	MOVQ SI, R11
	MOVQ R9, R14
	MOVQ k+40(FP), R13

p128:
	MOVL (R11), AX
	SHLL $1, AX
	JZ   skip128
	MOVQ (R14), R12
	LEAQ (DX)(R12*4), R12
	VBROADCASTSS (R11), Z8
	MADD16(0, Z0, Z16)
	MADD16(64, Z1, Z17)
	MADD16(128, Z2, Z18)
	MADD16(192, Z3, Z19)
	MADD16(256, Z4, Z20)
	MADD16(320, Z5, Z21)
	MADD16(384, Z6, Z22)
	MADD16(448, Z7, Z23)

skip128:
	ADDQ R8, R11
	ADDQ $8, R14
	DECQ R13
	JNZ  p128
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $128, R10
	JMP  z128

z64:
	TESTQ R10, R10
	JZ    zdone
	MOVQ  $-1, AX              // all 64 lanes
	CMPQ  R10, $64
	JGE   mask64
	MOVQ  R10, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX                   // the low w lanes

mask64:
	KMOVW AX, K1
	SHRQ  $16, AX
	KMOVW AX, K2
	SHRQ  $16, AX
	KMOVW AX, K3
	SHRQ  $16, AX
	KMOVW AX, K4
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	CMPB   write+56(FP), $0
	JNE    sweep64
	VMOVUPS.Z 0(DI), K1, Z0
	VMOVUPS.Z 64(DI), K2, Z1
	VMOVUPS.Z 128(DI), K3, Z2
	VMOVUPS.Z 192(DI), K4, Z3

sweep64:
	MOVQ SI, R11
	MOVQ R9, R14
	MOVQ k+40(FP), R13

p64:
	MOVL (R11), AX
	SHLL $1, AX
	JZ   skip64
	MOVQ (R14), R12
	LEAQ (DX)(R12*4), R12
	VBROADCASTSS (R11), Z8
	MASKMADD16(0, K1, Z0, Z16)
	MASKMADD16(64, K2, Z1, Z17)
	MASKMADD16(128, K3, Z2, Z18)
	MASKMADD16(192, K4, Z3, Z19)

skip64:
	ADDQ R8, R11
	ADDQ $8, R14
	DECQ R13
	JNZ  p64
	VMOVUPS Z0, K1, 0(DI)
	VMOVUPS Z1, K2, 64(DI)
	VMOVUPS Z2, K3, 128(DI)
	VMOVUPS Z3, K4, 192(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, R10
	JG   z64

zdone:
	VZEROUPPER
	RET

// DOT accumulates the packed A lanes (Y8) times one broadcast B float
// into acc, through tmp.
#define DOT(baddr, acc, tmp) \
	VBROADCASTSS baddr, tmp; \
	VMULPS tmp, Y8, tmp; \
	VADDPS tmp, acc, acc

// func dotPanelAVX2(pk, b *float32, boff *int, segs, seg, skip int, out *float32)
//
// Eight rows of A (packed lane-interleaved: pk[p*8+l] = A[l][p]) against
// eight rows of B: out[j*8+l] = sum over ascending p of A[l][p]*B[j][p],
// each sum starting from zero, for p in [0, segs*seg). B row j starts
// boff[j] floats into b and runs in segs segments of seg floats, each
// skip floats past the end of the one before: one segment for a
// row-major B, one per output row for a convolution's shifted rows of
// a zero-padded plane, whose border columns the skips step over. Lanes
// are different output rows, so no dot product is ever split. Requires
// seg >= 1.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-56
	MOVQ pk+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ boff+16(FP), AX
	MOVQ segs+24(FP), BX
	MOVQ seg+32(FP), DI
	MOVQ 0(AX), CX
	LEAQ (DX)(CX*4), DX        // row 0; rows 1-7 at DX + 4*R8..R14
	MOVQ 8(AX), R8
	SUBQ CX, R8
	MOVQ 16(AX), R9
	SUBQ CX, R9
	MOVQ 24(AX), R10
	SUBQ CX, R10
	MOVQ 32(AX), R11
	SUBQ CX, R11
	MOVQ 40(AX), R12
	SUBQ CX, R12
	MOVQ 48(AX), R13
	SUBQ CX, R13
	MOVQ 56(AX), R14
	SUBQ CX, R14
	MOVQ skip+40(FP), AX
	SHLQ $2, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ BX, BX
	JZ    dotdone

dotseg:
	MOVQ DI, CX

dotloop:
	VMOVUPS (SI), Y8
	DOT((DX), Y0, Y9)
	DOT((DX)(R8*4), Y1, Y10)
	DOT((DX)(R9*4), Y2, Y11)
	DOT((DX)(R10*4), Y3, Y12)
	DOT((DX)(R11*4), Y4, Y13)
	DOT((DX)(R12*4), Y5, Y14)
	DOT((DX)(R13*4), Y6, Y15)
	DOT((DX)(R14*4), Y7, Y9)
	ADDQ $32, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  dotloop
	ADDQ AX, DX
	DECQ BX
	JNZ  dotseg

dotdone:
	MOVQ out+48(FP), DI
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

// func copyRowsAVX2(dst, src *float32, rows, w, dstPitch, srcPitch int)
//
// Copies rows runs of w >= 1 floats, srcPitch floats apart from src, to
// runs dstPitch floats apart from dst, eight floats per move. A row of
// w >= 8 floats ends with a move of its last eight, which may overlap
// the move before it, and writes nothing past the row; a shorter row
// takes one masked move. A conv plane's rows are too short to pay for
// a memmove call each.
TEXT ·copyRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ dstPitch+32(FP), R8
	MOVQ srcPitch+40(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	TESTQ CX, CX
	JZ    copydone
	CMPQ  DX, $8
	JGE   copywide
	MOVQ  $8, BX
	SUBQ  DX, BX
	LEAQ  tailMask<>(SB), R10
	VMOVDQU (R10)(BX*4), Y1    // low w lanes

copynarrow:
	VMASKMOVPS (SI), Y1, Y0
	VMASKMOVPS Y0, Y1, (DI)
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  copynarrow
	JMP  copydone

copywide:
	LEAQ -32(DX*4), AX         // byte offset of the last eight floats
	SHRQ $3, DX                // whole moves before them

copyrow:
	XORQ R10, R10
	MOVQ DX, R11

copy8:
	VMOVUPS (SI)(R10*1), Y0
	VMOVUPS Y0, (DI)(R10*1)
	ADDQ $32, R10
	DECQ R11
	JNZ  copy8
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  copyrow

copydone:
	VZEROUPPER
	RET

// func packPanel8AVX2(pk, a *float32, n, stride int)
//
// Interleaves eight rows of a, stride floats apart, into pk:
// pk[p*8+l] = a[l*stride+p] for p in [0, n), n a multiple of 8. Each
// 8x8 block is one transpose in registers: eight loads, 24 shuffles,
// eight stores.
TEXT ·packPanel8AVX2(SB), NOSPLIT, $0-32
	MOVQ pk+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ stride+24(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9        // 3 rows
	LEAQ (R8)(R8*4), R10       // 5 rows
	LEAQ (R9)(R8*4), R11       // 7 rows
	SHRQ $3, CX
	JZ   packdone

packblock:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R9*1), Y3
	VMOVUPS (SI)(R8*4), Y4
	VMOVUPS (SI)(R10*1), Y5
	VMOVUPS (SI)(R9*2), Y6
	VMOVUPS (SI)(R11*1), Y7
	VUNPCKLPS Y1, Y0, Y8       // r0 r1 interleaved: columns 0 1 | 4 5
	VUNPCKHPS Y1, Y0, Y9       // columns 2 3 | 6 7
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0 // rows 0-3 of column 0 | 4
	VSHUFPS $0xee, Y10, Y8, Y1 // column 1 | 5
	VSHUFPS $0x44, Y11, Y9, Y2 // column 2 | 6
	VSHUFPS $0xee, Y11, Y9, Y3 // column 3 | 7
	VSHUFPS $0x44, Y14, Y12, Y4 // rows 4-7 of column 0 | 4
	VSHUFPS $0xee, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS Y8, 0(DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	ADDQ $32, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  packblock

packdone:
	VZEROUPPER
	RET

DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4

// func biasLeakyAVX2(v *float32, n int, bias, slope float32)
//
// v[i] = t * (sign bit of t ? slope : 1) with t = v[i] + bias, for i in
// [0, n), n a multiple of 8: addBiasActivate's leaky pass eight lanes at
// a time. The sign bit picks the scale as it indexes leakyScale in the
// Go loop, and each lane rounds the add, then the multiply.
TEXT ·biasLeakyAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS bias+16(FP), Y1
	VBROADCASTSS slope+20(FP), Y2
	VBROADCASTSS one<>(SB), Y3
	SHRQ $3, CX
	JZ   leakydone

leakyloop:
	VMOVUPS   (DI), Y0
	VADDPS    Y1, Y0, Y0
	VBLENDVPS Y0, Y2, Y3, Y4
	VMULPS    Y4, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, DI
	DECQ      CX
	JNZ       leakyloop

leakydone:
	VZEROUPPER
	RET

// GRADQ rewrites eight delta floats of one plane through the leaky
// derivative at the matching out floats: d *= (o <= 0 ? slope : 1),
// with o <= 0 ordered, so NaN takes the 1.
#define GRADQ(o, d) \
	VMOVUPS   o, Y4; \
	VCMPPS    $0x12, Y13, Y4, Y5; \
	VBLENDVPS Y5, Y14, Y15, Y5; \
	VMULPS    d, Y5, Y5; \
	VMOVUPS   Y5, d

// SUMQ adds float j of the eight just rewritten in each of the four
// planes to that plane's sum.
#define SUMQ(j) \
	VADDSS j(DI), X0, X0; \
	VADDSS j(DI)(R8*1), X1, X1; \
	VADDSS j(DI)(R9*1), X2, X2; \
	VADDSS j(DI)(R10*1), X3, X3

// func leakyGradSum4AVX2(out, delta *float32, stride, n int, slope float32, sums *float32)
//
// For the four planes q at out+q*stride and delta+q*stride (floats) and
// i in [0, n), n a multiple of 8: delta[i] *= (out[i] <= 0 ? slope : 1),
// and sums[q] = the plane's products added in ascending i, from zero.
// The products are vector lanes; each plane's sum stays one scalar
// chain, and the four chains interleave.
TEXT ·leakyGradSum4AVX2(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), SI
	MOVQ         delta+8(FP), DI
	MOVQ         stride+16(FP), R8
	MOVQ         n+24(FP), CX
	VBROADCASTSS slope+32(FP), Y14
	MOVQ         sums+40(FP), DX
	VBROADCASTSS one<>(SB), Y15
	VXORPS       Y13, Y13, Y13
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	SHLQ         $2, R8
	LEAQ         (R8)(R8*1), R9
	LEAQ         (R9)(R8*1), R10
	SHRQ         $3, CX
	JZ           graddone

gradloop:
	GRADQ((SI), (DI))
	GRADQ((SI)(R8*1), (DI)(R8*1))
	GRADQ((SI)(R9*1), (DI)(R9*1))
	GRADQ((SI)(R10*1), (DI)(R10*1))
	SUMQ(0)
	SUMQ(4)
	SUMQ(8)
	SUMQ(12)
	SUMQ(16)
	SUMQ(20)
	SUMQ(24)
	SUMQ(28)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  gradloop

graddone:
	VMOVSS X0, 0(DX)
	VMOVSS X1, 4(DX)
	VMOVSS X2, 8(DX)
	VMOVSS X3, 12(DX)
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/4, $0xff800000
GLOBL negInf<>(SB), RODATA|NOPTR, $4

// poolLanes<> is each lane's input offset after VSHUFPS splits sixteen
// floats into window lefts (or rights): windows 0, 1, 4, 5 | 2, 3, 6, 7.
DATA poolLanes<>+0(SB)/4, $0
DATA poolLanes<>+4(SB)/4, $2
DATA poolLanes<>+8(SB)/4, $8
DATA poolLanes<>+12(SB)/4, $10
DATA poolLanes<>+16(SB)/4, $4
DATA poolLanes<>+20(SB)/4, $6
DATA poolLanes<>+24(SB)/4, $12
DATA poolLanes<>+28(SB)/4, $14
GLOBL poolLanes<>(SB), RODATA|NOPTR, $32

// POOLSTEP makes v (input index iv) the lanes' best where v > best:
// ordered and strict, so NaN and ties never replace.
#define POOLSTEP(v, iv) \
	VCMPPS    $0x1e, Y8, v, Y7; \
	VBLENDVPS Y7, v, Y8, Y8; \
	VBLENDVPS Y7, iv, Y9, Y9

// func maxPool2AVX2(top, bot, dst *float32, idx *int32, n, base, inW int)
//
// One output row of a 2×2 stride-2 max-pool, n >= 8 windows: window w
// reads top[2w], top[2w+1], bot[2w], bot[2w+1] (input indices base+2w,
// +1, +inW, +inW+1) and writes the first of them strictly greater than
// all before it and than −Inf to dst[w], its index to idx[w] (−Inf and
// −1 when none is). Eight windows per block; a last partial block is
// redone as the eight windows ending the row, which rewrites some
// windows with the same values.
TEXT ·maxPool2AVX2(SB), NOSPLIT, $0-56
	MOVQ top+0(FP), SI
	MOVQ bot+8(FP), DX
	MOVQ dst+16(FP), DI
	MOVQ idx+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ base+40(FP), AX
	MOVQ inW+48(FP), BX
	VBROADCASTSS negInf<>(SB), Y14
	VMOVDQU      poolLanes<>(SB), Y15
	VMOVQ        BX, X13
	VPBROADCASTD X13, Y13          // inW
	VPCMPEQD     Y12, Y12, Y12     // −1

poolblock:
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VSHUFPS      $0x88, Y1, Y0, Y2 // top lefts
	VSHUFPS      $0xdd, Y1, Y0, Y3 // top rights
	VMOVUPS      (DX), Y0
	VMOVUPS      32(DX), Y1
	VSHUFPS      $0x88, Y1, Y0, Y4 // bottom lefts
	VSHUFPS      $0xdd, Y1, Y0, Y5 // bottom rights
	VMOVQ        AX, X6
	VPBROADCASTD X6, Y6
	VPADDD       Y15, Y6, Y6       // top-left indices
	VMOVAPS      Y14, Y8           // best = −Inf
	VMOVAPS      Y12, Y9           // index = −1
	POOLSTEP(Y2, Y6)
	VPSUBD       Y12, Y6, Y10
	POOLSTEP(Y3, Y10)
	VPADDD       Y13, Y6, Y10
	POOLSTEP(Y4, Y10)
	VPSUBD       Y12, Y10, Y10
	POOLSTEP(Y5, Y10)
	VPERMPD      $0xd8, Y8, Y8     // lanes back to window order
	VPERMPD      $0xd8, Y9, Y9
	VMOVUPS      Y8, (DI)
	VMOVDQU      Y9, (R8)
	SUBQ         $8, CX
	JZ           pooldone
	MOVQ         $8, R9
	CMPQ         CX, R9
	CMOVQLT      CX, R9            // advance min(left, 8) windows
	MOVQ         $8, R10
	CMPQ         CX, R10
	CMOVQLT      R10, CX           // left = max(left, 8)
	LEAQ         (SI)(R9*8), SI
	LEAQ         (DX)(R9*8), DX
	LEAQ         (DI)(R9*4), DI
	LEAQ         (R8)(R9*4), R8
	LEAQ         (AX)(R9*2), AX
	JMP          poolblock

pooldone:
	VZEROUPPER
	RET
