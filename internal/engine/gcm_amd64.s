//go:build amd64 && !purego

#include "textflag.h"

// AES-128-GCM on 512-bit registers: four counter blocks per ZMM
// register (VAES), four registers per 256-byte chunk, and GHASH by
// VPCLMULQDQ over the powers H^16..H^1, reduced once per chunk. After
// Drucker, Gueron & Krasnov, "Making AES great again: the forthcoming
// vectorized AES instruction" (ITNG '18).
//
// GHASH runs in the byte-reflected form of Gueron & Kounavis ("Intel
// Carry-Less Multiplication Instruction and its Usage for Computing the
// GCM Mode"), the form Go's own amd64 GCM uses: a block is byte-swapped
// into a register, the key powers are stored times x (gcm_amd64.go
// ghashForm), and a 256-bit product folds back into 128 bits by two
// multiplies by the constant gcmPoly.
//
// Registers across gcmVAES:
//   Z0-Z3    AES states; the seal's ciphertext
//   Z4-Z7    the open's ciphertext; the seal's round key 10 XOR
//            plaintext, then its byte-swapped ciphertext, GHASH input
//            of the next chunk's rounds
//   Z8-Z10   GHASH product: low, middle and high 128-bit terms per lane
//   Z11      scratch
//   Z12-Z15  H^16..H^13, H^12..H^9, H^8..H^5, H^4..H^1
//   Z16-Z26  round keys 0-10, each broadcast to four lanes
//   Z27      GHASH accumulator (lane 0; lanes 1-3 zero)
//   Z28      counter step: 4 in each lane's low dword
//   Z29      the next four counter blocks, byte-swapped (counter in the low dword)
//   Z30      gcmPoly in each lane
//   Z31      byte-swap mask in each lane
//   K1-K4    byte masks of a tail's four vectors

DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

DATA gcmPoly<>+0(SB)/8, $0x0000000000000001
DATA gcmPoly<>+8(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

// Counter offsets of the first vector from J0: the data's first block
// is encrypted under counter 2.
DATA ctrFirst<>+0(SB)/8, $1
DATA ctrFirst<>+8(SB)/8, $0
DATA ctrFirst<>+16(SB)/8, $2
DATA ctrFirst<>+24(SB)/8, $0
DATA ctrFirst<>+32(SB)/8, $3
DATA ctrFirst<>+40(SB)/8, $0
DATA ctrFirst<>+48(SB)/8, $4
DATA ctrFirst<>+56(SB)/8, $0
GLOBL ctrFirst<>(SB), RODATA|NOPTR, $64

DATA ctrStep<>+0(SB)/8, $4
DATA ctrStep<>+8(SB)/8, $0
GLOBL ctrStep<>(SB), RODATA|NOPTR, $16

// CTR4 puts the next 16 counter blocks in Z0-Z3. VPADDD adds within
// the low dword, which is GCM's inc32.
#define CTR4 \
	VPSHUFB Z31, Z29, Z0; \
	VPADDD  Z28, Z29, Z29; \
	VPSHUFB Z31, Z29, Z1; \
	VPADDD  Z28, Z29, Z29; \
	VPSHUFB Z31, Z29, Z2; \
	VPADDD  Z28, Z29, Z29; \
	VPSHUFB Z31, Z29, Z3; \
	VPADDD  Z28, Z29, Z29

#define ROUND4(K) \
	VAESENC K, Z0, Z0; \
	VAESENC K, Z1, Z1; \
	VAESENC K, Z2, Z2; \
	VAESENC K, Z3, Z3

// AES9 runs the whitening and rounds 1-9 on Z0-Z3. The caller runs
// round 10 with round key 10 XORed with the data, which yields the
// data XOR the key stream in one instruction.
#define AES9 \
	VPXORD Z16, Z0, Z0; \
	VPXORD Z16, Z1, Z1; \
	VPXORD Z16, Z2, Z2; \
	VPXORD Z16, Z3, Z3; \
	ROUND4(Z17); \
	ROUND4(Z18); \
	ROUND4(Z19); \
	ROUND4(Z20); \
	ROUND4(Z21); \
	ROUND4(Z22); \
	ROUND4(Z23); \
	ROUND4(Z24); \
	ROUND4(Z25)

// BSWAP4 byte-swaps every block of four registers.
#define BSWAP4(A, B, C, D) \
	VPSHUFB Z31, A, A; \
	VPSHUFB Z31, B, B; \
	VPSHUFB Z31, C, C; \
	VPSHUFB Z31, D, D

// MULADD adds the 256-bit lane products D * P into Z8-Z10; U is
// scratch.
#define MULADD(D, P, U) \
	VPCLMULQDQ $0x00, P, D, Z11; \
	VPCLMULQDQ $0x11, P, D, U; \
	VPXORD     Z11, Z8, Z8; \
	VPXORD     U, Z10, Z10; \
	VPCLMULQDQ $0x01, P, D, Z11; \
	VPCLMULQDQ $0x10, P, D, U; \
	VPTERNLOGD $0x96, Z11, U, Z9

// GHASH4 folds the byte-swapped blocks A..D (16 of them, the first
// already XORed with the accumulator) times the powers PA..PD into
// Z27: one reduction per lane, then the four lanes summed.
#define GHASH4(A, B, C, D, PA, PB, PC, PD, U) \
	VPCLMULQDQ    $0x00, PA, A, Z8; \
	VPCLMULQDQ    $0x11, PA, A, Z10; \
	VPCLMULQDQ    $0x01, PA, A, Z9; \
	VPCLMULQDQ    $0x10, PA, A, Z11; \
	VPXORD        Z11, Z9, Z9; \
	MULADD(B, PB, U); \
	MULADD(C, PC, U); \
	MULADD(D, PD, U); \
	VPCLMULQDQ    $0x01, Z8, Z30, Z11; \
	VPSHUFD       $0x4e, Z8, Z8; \
	VPTERNLOGD    $0x96, Z11, Z8, Z9; \
	VPCLMULQDQ    $0x01, Z9, Z30, Z11; \
	VPSHUFD       $0x4e, Z9, Z9; \
	VPTERNLOGD    $0x96, Z11, Z9, Z10; \
	VEXTRACTI64X4 $1, Z10, Y11; \
	VPXOR         Y11, Y10, Y10; \
	VEXTRACTI128  $1, Y10, X11; \
	VPXORD        X11, X10, X27

// MULADD1 is MULADD with Z11 its only scratch register.
#define MULADD1(D, P) \
	VPCLMULQDQ $0x00, P, D, Z11; \
	VPXORD     Z11, Z8, Z8; \
	VPCLMULQDQ $0x11, P, D, Z11; \
	VPXORD     Z11, Z10, Z10; \
	VPCLMULQDQ $0x01, P, D, Z11; \
	VPXORD     Z11, Z9, Z9; \
	VPCLMULQDQ $0x10, P, D, Z11; \
	VPXORD     Z11, Z9, Z9

// AES9GHASH is AES9 with GHASH4 of the previous chunk's blocks A..D
// (times Z12-Z15) spread between its rounds, so the carry-less
// multiplies run beside the AES rounds rather than after them.
#define AES9GHASH(A, B, C, D) \
	VPXORD        Z16, Z0, Z0; \
	VPXORD        Z16, Z1, Z1; \
	VPXORD        Z16, Z2, Z2; \
	VPXORD        Z16, Z3, Z3; \
	ROUND4(Z17); \
	VPCLMULQDQ    $0x00, Z12, A, Z8; \
	VPCLMULQDQ    $0x11, Z12, A, Z10; \
	VPCLMULQDQ    $0x01, Z12, A, Z9; \
	VPCLMULQDQ    $0x10, Z12, A, Z11; \
	VPXORD        Z11, Z9, Z9; \
	ROUND4(Z18); \
	MULADD1(B, Z13); \
	ROUND4(Z19); \
	MULADD1(C, Z14); \
	ROUND4(Z20); \
	MULADD1(D, Z15); \
	ROUND4(Z21); \
	VPCLMULQDQ    $0x01, Z8, Z30, Z11; \
	VPSHUFD       $0x4e, Z8, Z8; \
	VPTERNLOGD    $0x96, Z11, Z8, Z9; \
	ROUND4(Z22); \
	VPCLMULQDQ    $0x01, Z9, Z30, Z11; \
	VPSHUFD       $0x4e, Z9, Z9; \
	VPTERNLOGD    $0x96, Z11, Z9, Z10; \
	ROUND4(Z23); \
	VEXTRACTI64X4 $1, Z10, Y11; \
	VPXOR         Y11, Y10, Y10; \
	VEXTRACTI128  $1, Y10, X11; \
	VPXORD        X11, X10, X27; \
	ROUND4(Z24); \
	ROUND4(Z25)

// TAIL sets up the last CX bytes (1-255): K1-K4 mask the bytes of each
// of the four vectors that lie inside them, and R13 points at the
// powers H^n..H^1 for their n = ceil(CX/16) blocks, followed by the
// zero entries the unused lanes read.
#define TAIL \
	XORQ   R13, R13; \
	MOVQ   CX, DX; \
	MOVQ   $-1, AX; \
	BZHIQ  DX, AX, BX; \
	KMOVQ  BX, K1; \
	SUBQ   $64, DX; \
	CMOVQLT R13, DX; \
	BZHIQ  DX, AX, BX; \
	KMOVQ  BX, K2; \
	SUBQ   $64, DX; \
	CMOVQLT R13, DX; \
	BZHIQ  DX, AX, BX; \
	KMOVQ  BX, K3; \
	SUBQ   $64, DX; \
	CMOVQLT R13, DX; \
	BZHIQ  DX, AX, BX; \
	KMOVQ  BX, K4; \
	LEAQ   15(CX), DX; \
	ANDQ   $-16, DX; \
	LEAQ   256(R8), R13; \
	SUBQ   DX, R13

// func gcmVAES(k *gcmKey, j0 *[16]byte, dst, src, aad []byte, tag *[16]byte, open bool)
TEXT ·gcmVAES(SB), NOSPLIT, $0-97
	MOVQ k+0(FP), AX
	MOVQ dst_base+16(FP), DI
	MOVQ src_base+40(FP), SI
	MOVQ src_len+48(FP), R11
	MOVQ aad_base+64(FP), R9
	MOVQ aad_len+72(FP), R10
	MOVBQZX open+96(FP), R12
	LEAQ 176(AX), R8

	VBROADCASTI32X4 bswapMask<>(SB), Z31
	VBROADCASTI32X4 gcmPoly<>(SB), Z30
	VBROADCASTI32X4 ctrStep<>(SB), Z28
	VBROADCASTI32X4 0(AX), Z16
	VBROADCASTI32X4 16(AX), Z17
	VBROADCASTI32X4 32(AX), Z18
	VBROADCASTI32X4 48(AX), Z19
	VBROADCASTI32X4 64(AX), Z20
	VBROADCASTI32X4 80(AX), Z21
	VBROADCASTI32X4 96(AX), Z22
	VBROADCASTI32X4 112(AX), Z23
	VBROADCASTI32X4 128(AX), Z24
	VBROADCASTI32X4 144(AX), Z25
	VBROADCASTI32X4 160(AX), Z26
	VMOVDQU64       0(R8), Z12
	VMOVDQU64       64(R8), Z13
	VMOVDQU64       128(R8), Z14
	VMOVDQU64       192(R8), Z15
	VPXORD          Z27, Z27, Z27

	// GHASH the additional data.
	MOVQ R10, CX

aadLoop:
	CMPQ CX, $256
	JB   aadTail
	VMOVDQU64 0(R9), Z4
	VMOVDQU64 64(R9), Z5
	VMOVDQU64 128(R9), Z6
	VMOVDQU64 192(R9), Z7
	BSWAP4(Z4, Z5, Z6, Z7)
	VPXORD    Z27, Z4, Z4
	GHASH4(Z4, Z5, Z6, Z7, Z12, Z13, Z14, Z15, Z0)
	ADDQ      $256, R9
	SUBQ      $256, CX
	JMP       aadLoop

aadTail:
	TESTQ CX, CX
	JZ    aadDone
	TAIL
	VMOVDQU8.Z 0(R9), K1, Z4
	VMOVDQU8.Z 64(R9), K2, Z5
	VMOVDQU8.Z 128(R9), K3, Z6
	VMOVDQU8.Z 192(R9), K4, Z7
	BSWAP4(Z4, Z5, Z6, Z7)
	VPXORD     Z27, Z4, Z4
	GHASH4(Z4, Z5, Z6, Z7, 0(R13), 64(R13), 128(R13), 192(R13), Z0)

aadDone:
	MOVQ            j0+8(FP), BX
	VBROADCASTI32X4 (BX), Z29
	VPSHUFB         Z31, Z29, Z29
	VPADDD          ctrFirst<>(SB), Z29, Z29
	MOVQ            R11, CX
	TESTQ           R12, R12
	JNZ             openLoop

	// The seal runs one chunk behind in GHASH: Z4-Z7 hold the previous
	// chunk's byte-swapped ciphertext, hashed between this chunk's
	// rounds.
	CMPQ        CX, $256
	JB          sealTail
	CTR4
	AES9
	VPXORD      0(SI), Z26, Z4
	VPXORD      64(SI), Z26, Z5
	VPXORD      128(SI), Z26, Z6
	VPXORD      192(SI), Z26, Z7
	JMP         sealLast

sealLoop:
	CMPQ        CX, $256
	JB          sealFlush
	CTR4
	AES9GHASH(Z4, Z5, Z6, Z7)
	VPXORD      0(SI), Z26, Z4
	VPXORD      64(SI), Z26, Z5
	VPXORD      128(SI), Z26, Z6
	VPXORD      192(SI), Z26, Z7

sealLast:
	VAESENCLAST Z4, Z0, Z0
	VAESENCLAST Z5, Z1, Z1
	VAESENCLAST Z6, Z2, Z2
	VAESENCLAST Z7, Z3, Z3
	VMOVDQU64   Z0, 0(DI)
	VMOVDQU64   Z1, 64(DI)
	VMOVDQU64   Z2, 128(DI)
	VMOVDQU64   Z3, 192(DI)
	VPSHUFB     Z31, Z0, Z4
	VPSHUFB     Z31, Z1, Z5
	VPSHUFB     Z31, Z2, Z6
	VPSHUFB     Z31, Z3, Z7
	VPXORD      Z27, Z4, Z4
	ADDQ        $256, SI
	ADDQ        $256, DI
	SUBQ        $256, CX
	JMP         sealLoop

sealFlush:
	GHASH4(Z4, Z5, Z6, Z7, Z12, Z13, Z14, Z15, Z0)

sealTail:
	TESTQ       CX, CX
	JZ          finish
	TAIL
	CTR4
	AES9
	VMOVDQU8.Z  0(SI), K1, Z4
	VMOVDQU8.Z  64(SI), K2, Z5
	VMOVDQU8.Z  128(SI), K3, Z6
	VMOVDQU8.Z  192(SI), K4, Z7
	VPXORD      Z4, Z26, Z4
	VPXORD      Z5, Z26, Z5
	VPXORD      Z6, Z26, Z6
	VPXORD      Z7, Z26, Z7
	VAESENCLAST Z4, Z0, Z0
	VAESENCLAST Z5, Z1, Z1
	VAESENCLAST Z6, Z2, Z2
	VAESENCLAST Z7, Z3, Z3
	VMOVDQU8    Z0, K1, 0(DI)
	VMOVDQU8    Z1, K2, 64(DI)
	VMOVDQU8    Z2, K3, 128(DI)
	VMOVDQU8    Z3, K4, 192(DI)

	// GHASH reads the ciphertext zero-padded, not the key stream past it.
	VMOVDQU8.Z Z0, K1, Z0
	VMOVDQU8.Z Z1, K2, Z1
	VMOVDQU8.Z Z2, K3, Z2
	VMOVDQU8.Z Z3, K4, Z3
	BSWAP4(Z0, Z1, Z2, Z3)
	VPXORD     Z27, Z0, Z0
	GHASH4(Z0, Z1, Z2, Z3, 0(R13), 64(R13), 128(R13), 192(R13), Z4)
	JMP        finish

	// The open loads each ciphertext block once, into Z4-Z7, and both
	// the decryption and GHASH read it from there.
openLoop:
	CMPQ        CX, $256
	JB          openTail
	VMOVDQU64   0(SI), Z4
	VMOVDQU64   64(SI), Z5
	VMOVDQU64   128(SI), Z6
	VMOVDQU64   192(SI), Z7
	CTR4
	AES9
	VPXORD      Z4, Z26, Z11
	VAESENCLAST Z11, Z0, Z0
	VPXORD      Z5, Z26, Z11
	VAESENCLAST Z11, Z1, Z1
	VPXORD      Z6, Z26, Z11
	VAESENCLAST Z11, Z2, Z2
	VPXORD      Z7, Z26, Z11
	VAESENCLAST Z11, Z3, Z3
	VMOVDQU64   Z0, 0(DI)
	VMOVDQU64   Z1, 64(DI)
	VMOVDQU64   Z2, 128(DI)
	VMOVDQU64   Z3, 192(DI)
	BSWAP4(Z4, Z5, Z6, Z7)
	VPXORD      Z27, Z4, Z4
	GHASH4(Z4, Z5, Z6, Z7, Z12, Z13, Z14, Z15, Z0)
	ADDQ        $256, SI
	ADDQ        $256, DI
	SUBQ        $256, CX
	JMP         openLoop

openTail:
	TESTQ       CX, CX
	JZ          finish
	TAIL
	VMOVDQU8.Z  0(SI), K1, Z4
	VMOVDQU8.Z  64(SI), K2, Z5
	VMOVDQU8.Z  128(SI), K3, Z6
	VMOVDQU8.Z  192(SI), K4, Z7
	CTR4
	AES9
	VPXORD      Z4, Z26, Z11
	VAESENCLAST Z11, Z0, Z0
	VPXORD      Z5, Z26, Z11
	VAESENCLAST Z11, Z1, Z1
	VPXORD      Z6, Z26, Z11
	VAESENCLAST Z11, Z2, Z2
	VPXORD      Z7, Z26, Z11
	VAESENCLAST Z11, Z3, Z3
	VMOVDQU8    Z0, K1, 0(DI)
	VMOVDQU8    Z1, K2, 64(DI)
	VMOVDQU8    Z2, K3, 128(DI)
	VMOVDQU8    Z3, K4, 192(DI)
	BSWAP4(Z4, Z5, Z6, Z7)
	VPXORD      Z27, Z4, Z4
	GHASH4(Z4, Z5, Z6, Z7, 0(R13), 64(R13), 128(R13), 192(R13), Z0)

finish:
	// The length block, bit lengths of the additional data (high half)
	// and of the ciphertext (low half), times H.
	MOVQ       R11, AX
	SHLQ       $3, AX
	MOVQ       R10, DX
	SHLQ       $3, DX
	VMOVQ      AX, X4
	VPINSRQ    $1, DX, X4, X4
	VPXORD     X27, X4, X4
	VPCLMULQDQ $0x00, 240(R8), X4, X8
	VPCLMULQDQ $0x11, 240(R8), X4, X10
	VPCLMULQDQ $0x01, 240(R8), X4, X9
	VPCLMULQDQ $0x10, 240(R8), X4, X11
	VPXOR      X11, X9, X9
	VPCLMULQDQ $0x01, X8, X30, X11
	VPSHUFD    $0x4e, X8, X8
	VPTERNLOGD $0x96, X11, X8, X9
	VPCLMULQDQ $0x01, X9, X30, X11
	VPSHUFD    $0x4e, X9, X9
	VPTERNLOGD $0x96, X11, X9, X10
	VPSHUFB    X31, X10, X10

	// Tag = GHASH XOR E(K, J0).
	MOVQ        j0+8(FP), BX
	VMOVDQU     (BX), X0
	VPXORD      X16, X0, X0
	VAESENC     X17, X0, X0
	VAESENC     X18, X0, X0
	VAESENC     X19, X0, X0
	VAESENC     X20, X0, X0
	VAESENC     X21, X0, X0
	VAESENC     X22, X0, X0
	VAESENC     X23, X0, X0
	VAESENC     X24, X0, X0
	VAESENC     X25, X0, X0
	VAESENCLAST X26, X0, X0
	VPXOR       X0, X10, X10
	MOVQ        tag+88(FP), AX
	VMOVDQU     X10, (AX)
	VZEROUPPER
	RET

#define KEYROUND(RCON, OFF) \
	AESKEYGENASSIST $RCON, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVOU           X0, X2; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVOU           X0, OFF(DI)

// func expandKey128(key *[16]byte, rk *[11][16]byte)
TEXT ·expandKey128(SB), NOSPLIT, $0-16
	MOVQ  key+0(FP), AX
	MOVQ  rk+8(FP), DI
	MOVOU (AX), X0
	MOVOU X0, 0(DI)
	KEYROUND(0x01, 16)
	KEYROUND(0x02, 32)
	KEYROUND(0x04, 48)
	KEYROUND(0x08, 64)
	KEYROUND(0x10, 80)
	KEYROUND(0x20, 96)
	KEYROUND(0x40, 112)
	KEYROUND(0x80, 128)
	KEYROUND(0x1b, 144)
	KEYROUND(0x36, 160)
	RET
