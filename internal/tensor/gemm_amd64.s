//go:build amd64 && !purego

#include "textflag.h"

// AVX2/FMA kernels under every matrix product, and a 512-bit tier of the
// two product kernels (DESIGN.md §12). Every output element is
// S = fma(a[K-1], b[K-1], … fma(a[0], b[0], +0)) for the row-broadcast
// kernels, or eight such lane chains reduced by one fixed tree for the dot
// kernels. The dot kernels store S or C+S; the row-broadcast kernels store S
// or fma(α, S, C), one rounding, the bits of an Axpy(α) of S into C (α = 1 is
// C+S exactly). Vector lanes are independent, so the tile an element lands in
// (8-, 4- or 1-row, 32/16/8/4/1 columns, either tier) never changes its bits:
// a result depends on its A row, its B column, k and α only.

// ---------------------------------------------------------------------------
// Row-broadcast kernel: C[m×n] = A·B or α·A·B + C, serving NN (aRow=k, aK=1), TN
// (aRow=1, aK=m) and, with bTrans set, NT products whose k is too short for
// the dot kernel below (k ≤ 8): B is then n×k, and each column strip is
// gathered into a k×16 stack tile before its rows run, so B is transposed
// sixteen rows at a time, in cache, and never as a whole.
//
// Register plan:
//   AX pA (k loop)   BX pB (k loop) / C row cursor   CX k counter
//   DX aRow bytes    R8 3·aRow bytes   R9 aK bytes
//   R10 ldb bytes    R11 ldc bytes
//   SI B strip       DI C strip        R15 columns left
//   R12 A row block  R13 C tile        R14 rows left
//   Y15 gather indices [0,k,…,7k] (bTrans only); Y14 gather mask
//   Y13 / X13 α, broadcast in the add epilogue (the last A broadcast of the
//   k loop otherwise)
// ---------------------------------------------------------------------------

// One k-step of a 4-row tile one vector wide: C0..C3 += A[4]·B.
#define KSTEP4(MOV, FMA, B, T0, T1, T2, T3, C0, C1, C2, C3) \
	MOV (BX), B; \
	VBROADCASTSS (AX), T0; \
	FMA B, T0, C0; \
	VBROADCASTSS (AX)(DX*1), T1; \
	FMA B, T1, C1; \
	VBROADCASTSS (AX)(DX*2), T2; \
	FMA B, T2, C2; \
	VBROADCASTSS (AX)(R8*1), T3; \
	FMA B, T3, C3; \
	ADDQ R9, AX; \
	ADDQ R10, BX

// One k-step of a 1-row tile one vector wide.
#define KSTEP1(MOV, FMA, B, T0, C0) \
	MOV (BX), B; \
	VBROADCASTSS (AX), T0; \
	FMA B, T0, C0; \
	ADDQ R9, AX; \
	ADDQ R10, BX

// Four one-vector accumulators become α·acc + the C rows at R13, R13+ldc, …
// (FMAROWS4, FMA a 213-form multiply-add), or are stored to them.
#define FMAROWS4(FMA, ALPHA, C0, C1, C2, C3) \
	VBROADCASTSS alpha+80(FP), ALPHA; \
	MOVQ R13, BX; \
	FMA (BX), ALPHA, C0; \
	ADDQ R11, BX; \
	FMA (BX), ALPHA, C1; \
	ADDQ R11, BX; \
	FMA (BX), ALPHA, C2; \
	ADDQ R11, BX; \
	FMA (BX), ALPHA, C3

#define STOREROWS4(MOV, C0, C1, C2, C3) \
	MOVQ R13, BX; \
	MOV C0, (BX); \
	ADDQ R11, BX; \
	MOV C1, (BX); \
	ADDQ R11, BX; \
	MOV C2, (BX); \
	ADDQ R11, BX; \
	MOV C3, (BX)

// Start a pass over the rows of the current column strip.
#define STRIPROWS \
	MOVQ a+24(FP), R12; \
	MOVQ DI, R13; \
	MOVQ m+0(FP), R14

#define TILEPTRS \
	MOVQ R12, AX; \
	MOVQ SI, BX; \
	MOVQ k+8(FP), CX

#define NEXTROWS4 \
	LEAQ (R12)(DX*4), R12; \
	LEAQ (R13)(R11*4), R13; \
	SUBQ $4, R14

#define NEXTROW1 \
	ADDQ DX, R12; \
	ADDQ R11, R13; \
	DECQ R14

// In bTrans mode each strip starts by filling the stack tile from the n×k B:
// tile row kk takes B[j, kk] for the strip's columns j. GATHER8 moves eight
// of them (the mask is re-armed each time because a gather clears it);
// GATHERSTRIPHEAD points BX and SI at the tile, GATHERSTRIPTAIL moves bsrc
// past the strip (BYTESPERK = 4·its width). AX, BX, CX, R12 and R13 are free
// at that point: STRIPROWS and TILEPTRS load them afterwards.
#define GATHER8(BASE, IDX, MASK, DST, OFF) \
	VPCMPEQD MASK, MASK, MASK; \
	VGATHERDPS MASK, (BASE)(IDX*4), DST; \
	VMOVUPS DST, OFF(BX)

#define GATHERSTRIPHEAD \
	MOVQ bsrc-520(SP), AX; \
	MOVQ k+8(FP), CX; \
	LEAQ tile-512(SP), BX; \
	MOVQ BX, SI

#define GATHERSTRIPTAIL(BYTESPERK) \
	MOVQ k+8(FP), CX; \
	IMULQ $BYTESPERK, CX; \
	ADDQ CX, bsrc-520(SP)

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// func gemmRowsAVX2(m, k, n int, a *float32, aRow, aK int, b *float32, ldb int, c *float32, ldc int, alpha float32, add, bTrans bool)
TEXT ·gemmRowsAVX2(SB), NOSPLIT, $520-86
	MOVQ aRow+32(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R8
	MOVQ aK+40(FP), R9
	SHLQ $2, R9
	MOVQ ldb+56(FP), R10
	SHLQ $2, R10
	MOVQ ldc+72(FP), R11
	SHLQ $2, R11
	MOVQ b+48(FP), SI
	MOVQ c+64(FP), DI
	MOVQ n+16(FP), R15
	CMPB bTrans+85(FP), $0
	JEQ  w16
	MOVQ SI, bsrc-520(SP)
	MOVQ $64, R10
	VPBROADCASTD k+8(FP), Y15
	VPMULLD lanes<>(SB), Y15, Y15

w16:
	CMPQ R15, $16
	JLT  w8
	CMPB bTrans+85(FP), $0
	JEQ  w16rows
	GATHERSTRIPHEAD
	MOVQ CX, R12
	SHLQ $5, R12
	LEAQ (AX)(R12*1), R13

w16gather:
	GATHER8(AX, Y15, Y14, Y8, 0)
	GATHER8(R13, Y15, Y14, Y9, 32)
	ADDQ $4, AX
	ADDQ $4, R13
	ADDQ $64, BX
	DECQ CX
	JNZ  w16gather
	GATHERSTRIPTAIL(64)

w16rows:
	STRIPROWS

w16r4:
	CMPQ R14, $4
	JLT  w16r1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TILEPTRS

w16r4k:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (AX)(DX*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (AX)(DX*2), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS (AX)(R8*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         R9, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          w16r4k

	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  w16r4st
	VBROADCASTSS alpha+80(FP), Y13
	VFMADD213PS  (BX), Y13, Y0
	VFMADD213PS  32(BX), Y13, Y1
	ADDQ         R11, BX
	VFMADD213PS  (BX), Y13, Y2
	VFMADD213PS  32(BX), Y13, Y3
	ADDQ         R11, BX
	VFMADD213PS  (BX), Y13, Y4
	VFMADD213PS  32(BX), Y13, Y5
	ADDQ         R11, BX
	VFMADD213PS  (BX), Y13, Y6
	VFMADD213PS  32(BX), Y13, Y7
	MOVQ         R13, BX

w16r4st:
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	ADDQ    R11, BX
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, 32(BX)
	ADDQ    R11, BX
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	ADDQ    R11, BX
	VMOVUPS Y6, (BX)
	VMOVUPS Y7, 32(BX)
	NEXTROWS4
	JMP     w16r4

w16r1:
	TESTQ R14, R14
	JZ    w16end
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TILEPTRS

w16r1k:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         R9, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          w16r1k

	CMPB add+84(FP), $0
	JEQ  w16r1st
	VBROADCASTSS alpha+80(FP), Y13
	VFMADD213PS  (R13), Y13, Y0
	VFMADD213PS  32(R13), Y13, Y1

w16r1st:
	VMOVUPS Y0, (R13)
	VMOVUPS Y1, 32(R13)
	NEXTROW1
	JMP     w16r1

w16end:
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, R15
	JMP  w16

w8:
	CMPQ R15, $8
	JLT  w4
	CMPB bTrans+85(FP), $0
	JEQ  w8rows
	GATHERSTRIPHEAD

w8gather:
	GATHER8(AX, Y15, Y14, Y8, 0)
	ADDQ $4, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  w8gather
	GATHERSTRIPTAIL(32)

w8rows:
	STRIPROWS

w8r4:
	CMPQ R14, $4
	JLT  w8r1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TILEPTRS

w8r4k:
	KSTEP4(VMOVUPS, VFMADD231PS, Y8, Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3)
	DECQ CX
	JNZ  w8r4k

	CMPB add+84(FP), $0
	JEQ  w8r4st
	FMAROWS4(VFMADD213PS, Y13, Y0, Y1, Y2, Y3)

w8r4st:
	STOREROWS4(VMOVUPS, Y0, Y1, Y2, Y3)
	NEXTROWS4
	JMP w8r4

w8r1:
	TESTQ R14, R14
	JZ    w8end
	VXORPS Y0, Y0, Y0
	TILEPTRS

w8r1k:
	KSTEP1(VMOVUPS, VFMADD231PS, Y8, Y10, Y0)
	DECQ CX
	JNZ  w8r1k

	CMPB add+84(FP), $0
	JEQ  w8r1st
	VBROADCASTSS alpha+80(FP), Y13
	VFMADD213PS  (R13), Y13, Y0

w8r1st:
	VMOVUPS Y0, (R13)
	NEXTROW1
	JMP     w8r1

w8end:
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, R15

w4:
	CMPQ R15, $4
	JLT  w1
	CMPB bTrans+85(FP), $0
	JEQ  w4rows
	GATHERSTRIPHEAD

w4gather:
	GATHER8(AX, X15, X14, X8, 0)
	ADDQ $4, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  w4gather
	GATHERSTRIPTAIL(16)

w4rows:
	STRIPROWS

w4r4:
	CMPQ R14, $4
	JLT  w4r1
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	TILEPTRS

w4r4k:
	KSTEP4(VMOVUPS, VFMADD231PS, X8, X10, X11, X12, X13, X0, X1, X2, X3)
	DECQ CX
	JNZ  w4r4k

	CMPB add+84(FP), $0
	JEQ  w4r4st
	FMAROWS4(VFMADD213PS, X13, X0, X1, X2, X3)

w4r4st:
	STOREROWS4(VMOVUPS, X0, X1, X2, X3)
	NEXTROWS4
	JMP w4r4

w4r1:
	TESTQ R14, R14
	JZ    w4end
	VXORPS X0, X0, X0
	TILEPTRS

w4r1k:
	KSTEP1(VMOVUPS, VFMADD231PS, X8, X10, X0)
	DECQ CX
	JNZ  w4r1k

	CMPB add+84(FP), $0
	JEQ  w4r1st
	VBROADCASTSS alpha+80(FP), X13
	VFMADD213PS  (R13), X13, X0

w4r1st:
	VMOVUPS X0, (R13)
	NEXTROW1
	JMP     w4r1

w4end:
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, R15

w1:
	TESTQ R15, R15
	JZ    done
	CMPB  bTrans+85(FP), $0
	JEQ   w1rows
	// One column of Bᵀ is one contiguous row of B: read it in place.
	MOVQ bsrc-520(SP), SI
	MOVQ $4, R10
	GATHERSTRIPTAIL(4)

w1rows:
	STRIPROWS

w1r4:
	CMPQ R14, $4
	JLT  w1r1
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	TILEPTRS

w1r4k:
	KSTEP4(VMOVSS, VFMADD231SS, X8, X10, X11, X12, X13, X0, X1, X2, X3)
	DECQ CX
	JNZ  w1r4k

	CMPB add+84(FP), $0
	JEQ  w1r4st
	FMAROWS4(VFMADD213SS, X13, X0, X1, X2, X3)

w1r4st:
	STOREROWS4(VMOVSS, X0, X1, X2, X3)
	NEXTROWS4
	JMP w1r4

w1r1:
	TESTQ R14, R14
	JZ    w1end
	VXORPS X0, X0, X0
	TILEPTRS

w1r1k:
	KSTEP1(VMOVSS, VFMADD231SS, X8, X10, X0)
	DECQ CX
	JNZ  w1r1k

	CMPB add+84(FP), $0
	JEQ  w1r1st
	VBROADCASTSS alpha+80(FP), X13
	VFMADD213SS  (R13), X13, X0

w1r1st:
	VMOVSS X0, (R13)
	NEXTROW1
	JMP    w1r1

w1end:
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ R15
	JMP  w1

done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// 512-bit tier: the two product kernels again, sixteen lanes to a vector.
// Each output is the FMA chain, or the eight lane chains and the reduction
// tree, of its AVX2 twin above, so the tiers agree bit for bit on every
// shape; only the tiling differs.
// ---------------------------------------------------------------------------

#define ZZERO4(C0, C1, C2, C3) \
	VXORPS C0, C0, C0; \
	VXORPS C1, C1, C1; \
	VXORPS C2, C2, C2; \
	VXORPS C3, C3, C3

// Row-broadcast kernel, gemmRowsAVX2's contract without bTrans, for n a
// multiple of 16: column strips of 32 (two vectors) and a last one of 16,
// row tiles of 8, 4 and 1 rows. The caller hands the last n mod 16 columns
// to gemmRowsAVX2, whose exact-width tiles give them the same bits: a
// masked 64-byte access to a narrow row reaches into the next rows' bytes,
// and a later load of those waits for the masked store to retire (m×16×4 in
// add mode ran 3.5× slower than on AVX2).
//
// Register plan: gemmRowsAVX2's, except
//   R11 A rows 4..7 during an 8-row tile's k loop (ldc bytes otherwise)
//   Z0-Z15 accumulators   Z16, Z17 B   Z18-Z25 broadcast A   Z26 α

// One k-step of one row: broadcast its A element, one FMA per B vector.
#define ZFMA2(ADDR, T, C0, C1) \
	VBROADCASTSS ADDR, T; \
	VFMADD231PS  Z16, T, C0; \
	VFMADD231PS  Z17, T, C1

#define ZFMA1(ADDR, T, C0) \
	VBROADCASTSS ADDR, T; \
	VFMADD231PS  Z16, T, C0

#define ZLOADB2 \
	VMOVUPS (BX), Z16; \
	VMOVUPS 64(BX), Z17

#define ZLOADB1 VMOVUPS (BX), Z16

#define ZNEXTK \
	ADDQ R9, AX; \
	ADDQ R10, BX; \
	DECQ CX

// α times the accumulators plus the C row at BX, one rounding (ZACC*), or
// the accumulators stored to it (ZST*); then BX moves to the next row.
#define ZACC2(C0, C1) \
	VFMADD213PS (BX), Z26, C0; \
	VFMADD213PS 64(BX), Z26, C1; \
	ADDQ        R11, BX

#define ZST2(C0, C1) \
	VMOVUPS C0, (BX); \
	VMOVUPS C1, 64(BX); \
	ADDQ    R11, BX

#define ZACC1(C0) \
	VFMADD213PS (BX), Z26, C0; \
	ADDQ        R11, BX

#define ZST1(C0) \
	VMOVUPS C0, (BX); \
	ADDQ    R11, BX

// An 8-row tile's k loop walks rows 4..7 through R11; this restores ldc.
#define ZLDC \
	MOVQ ldc+72(FP), R11; \
	SHLQ $2, R11

#define ZNEXTROWS8 \
	LEAQ (R12)(DX*8), R12; \
	LEAQ (R13)(R11*8), R13; \
	SUBQ $8, R14

// func gemmRowsAVX512(m, k, n int, a *float32, aRow, aK int, b *float32, ldb int, c *float32, ldc int, alpha float32, add bool)
TEXT ·gemmRowsAVX512(SB), NOSPLIT, $0-85
	MOVQ aRow+32(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R8
	MOVQ aK+40(FP), R9
	SHLQ $2, R9
	MOVQ ldb+56(FP), R10
	SHLQ $2, R10
	ZLDC
	MOVQ b+48(FP), SI
	MOVQ c+64(FP), DI
	MOVQ n+16(FP), R15
	VBROADCASTSS alpha+80(FP), Z26

z32:
	CMPQ R15, $32
	JLT  z16
	STRIPROWS

z32r8:
	CMPQ R14, $8
	JLT  z32r4
	ZZERO4(Z0, Z1, Z2, Z3)
	ZZERO4(Z4, Z5, Z6, Z7)
	ZZERO4(Z8, Z9, Z10, Z11)
	ZZERO4(Z12, Z13, Z14, Z15)
	TILEPTRS
	LEAQ (AX)(DX*4), R11

z32r8k:
	ZLOADB2
	ZFMA2((AX), Z18, Z0, Z1)
	ZFMA2((AX)(DX*1), Z19, Z2, Z3)
	ZFMA2((AX)(DX*2), Z20, Z4, Z5)
	ZFMA2((AX)(R8*1), Z21, Z6, Z7)
	ZFMA2((R11), Z22, Z8, Z9)
	ZFMA2((R11)(DX*1), Z23, Z10, Z11)
	ZFMA2((R11)(DX*2), Z24, Z12, Z13)
	ZFMA2((R11)(R8*1), Z25, Z14, Z15)
	ADDQ R9, R11
	ZNEXTK
	JNZ  z32r8k

	ZLDC
	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  z32r8st
	ZACC2(Z0, Z1)
	ZACC2(Z2, Z3)
	ZACC2(Z4, Z5)
	ZACC2(Z6, Z7)
	ZACC2(Z8, Z9)
	ZACC2(Z10, Z11)
	ZACC2(Z12, Z13)
	ZACC2(Z14, Z15)
	MOVQ R13, BX

z32r8st:
	ZST2(Z0, Z1)
	ZST2(Z2, Z3)
	ZST2(Z4, Z5)
	ZST2(Z6, Z7)
	ZST2(Z8, Z9)
	ZST2(Z10, Z11)
	ZST2(Z12, Z13)
	ZST2(Z14, Z15)
	ZNEXTROWS8
	JMP z32r8

z32r4:
	CMPQ R14, $4
	JLT  z32r1
	ZZERO4(Z0, Z1, Z2, Z3)
	ZZERO4(Z4, Z5, Z6, Z7)
	TILEPTRS

z32r4k:
	ZLOADB2
	ZFMA2((AX), Z18, Z0, Z1)
	ZFMA2((AX)(DX*1), Z19, Z2, Z3)
	ZFMA2((AX)(DX*2), Z20, Z4, Z5)
	ZFMA2((AX)(R8*1), Z21, Z6, Z7)
	ZNEXTK
	JNZ z32r4k

	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  z32r4st
	ZACC2(Z0, Z1)
	ZACC2(Z2, Z3)
	ZACC2(Z4, Z5)
	ZACC2(Z6, Z7)
	MOVQ R13, BX

z32r4st:
	ZST2(Z0, Z1)
	ZST2(Z2, Z3)
	ZST2(Z4, Z5)
	ZST2(Z6, Z7)
	NEXTROWS4

z32r1:
	TESTQ  R14, R14
	JZ     z32end
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	TILEPTRS

z32r1k:
	ZLOADB2
	ZFMA2((AX), Z18, Z0, Z1)
	ZNEXTK
	JNZ z32r1k

	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  z32r1st
	ZACC2(Z0, Z1)
	MOVQ R13, BX

z32r1st:
	ZST2(Z0, Z1)
	NEXTROW1
	JMP z32r1

z32end:
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, R15
	JMP  z32

z16:
	TESTQ R15, R15
	JZ    zdone
	STRIPROWS

z16r8:
	CMPQ R14, $8
	JLT  z16r4
	ZZERO4(Z0, Z2, Z4, Z6)
	ZZERO4(Z8, Z10, Z12, Z14)
	TILEPTRS
	LEAQ (AX)(DX*4), R11

z16r8k:
	ZLOADB1
	ZFMA1((AX), Z18, Z0)
	ZFMA1((AX)(DX*1), Z19, Z2)
	ZFMA1((AX)(DX*2), Z20, Z4)
	ZFMA1((AX)(R8*1), Z21, Z6)
	ZFMA1((R11), Z22, Z8)
	ZFMA1((R11)(DX*1), Z23, Z10)
	ZFMA1((R11)(DX*2), Z24, Z12)
	ZFMA1((R11)(R8*1), Z25, Z14)
	ADDQ R9, R11
	ZNEXTK
	JNZ  z16r8k

	ZLDC
	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  z16r8st
	ZACC1(Z0)
	ZACC1(Z2)
	ZACC1(Z4)
	ZACC1(Z6)
	ZACC1(Z8)
	ZACC1(Z10)
	ZACC1(Z12)
	ZACC1(Z14)
	MOVQ R13, BX

z16r8st:
	ZST1(Z0)
	ZST1(Z2)
	ZST1(Z4)
	ZST1(Z6)
	ZST1(Z8)
	ZST1(Z10)
	ZST1(Z12)
	ZST1(Z14)
	ZNEXTROWS8
	JMP z16r8

z16r4:
	CMPQ R14, $4
	JLT  z16r1
	ZZERO4(Z0, Z2, Z4, Z6)
	TILEPTRS

z16r4k:
	ZLOADB1
	ZFMA1((AX), Z18, Z0)
	ZFMA1((AX)(DX*1), Z19, Z2)
	ZFMA1((AX)(DX*2), Z20, Z4)
	ZFMA1((AX)(R8*1), Z21, Z6)
	ZNEXTK
	JNZ z16r4k

	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  z16r4st
	ZACC1(Z0)
	ZACC1(Z2)
	ZACC1(Z4)
	ZACC1(Z6)
	MOVQ R13, BX

z16r4st:
	ZST1(Z0)
	ZST1(Z2)
	ZST1(Z4)
	ZST1(Z6)
	NEXTROWS4

z16r1:
	TESTQ  R14, R14
	JZ     zdone
	VXORPS Z0, Z0, Z0
	TILEPTRS

z16r1k:
	ZLOADB1
	ZFMA1((AX), Z18, Z0)
	ZNEXTK
	JNZ z16r1k

	MOVQ R13, BX
	CMPB add+84(FP), $0
	JEQ  z16r1st
	ZACC1(Z0)
	MOVQ R13, BX

z16r1st:
	ZST1(Z0)
	NEXTROW1
	JMP z16r1

zdone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Dot kernel: C[m×n] (+)= A·Bᵀ with A m×k and B n×k both dense row-major,
// so both operands stream along k and B is never transposed. Each output
// owns one 8-lane accumulator (lane l sums k ≡ l mod 8, the last partial
// step masked), reduced by the fixed tree
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) whatever tile it sits in.
//
// Register plan:
//   AX pA (k loop)   BX pB (k loop) / C cursor   CX k-step counter
//   DX full k-steps  R9 k mod 8     R10 row bytes (k·4)   R8 3·R10
//   R11 ldc bytes (n·4)             Y14 tail mask
//   R12 A row block  R13 C row block   R14 rows left
//   SI B row pair    DI C tile         R15 columns left
// ---------------------------------------------------------------------------

DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// LOADMASK sets Y14 to REM leading all-ones lanes (REM in 1..7); TMP and
// IDX are clobbered.
#define LOADMASK(REM, TMP, IDX) \
	LEAQ tailmask<>(SB), TMP; \
	MOVQ $8, IDX; \
	SUBQ REM, IDX; \
	VMOVDQU (TMP)(IDX*4), Y14

// The reduction tree for four accumulators at once: the low half of D
// (named DLO) becomes [S(A), S(B), S(C), S(E)]. A and C are clobbered.
#define REDUCE4(A, B, C, E, D, DLO, TLO) \
	VHADDPS B, A, A; \
	VHADDPS E, C, C; \
	VHADDPS C, A, D; \
	VEXTRACTF128 $1, D, TLO; \
	VADDPS TLO, DLO, DLO

// The same tree for two accumulators, [S(A), S(B), …], and for one.
#define REDUCE2(A, B, ALO, TLO) \
	VHADDPS B, A, A; \
	VHADDPS A, A, A; \
	VEXTRACTF128 $1, A, TLO; \
	VADDPS TLO, ALO, ALO

#define REDUCE1(A, ALO, TLO) REDUCE2(A, A, ALO, TLO)

// X0 = [c0 c1 c2 c3], one column over four rows, accumulated into or stored
// to the C column at DI, DI+ldc, BX, BX+ldc.
#define ADDCOL4 \
	VMOVSS    (DI), X8; \
	VINSERTPS $0x10, (DI)(R11*1), X8, X8; \
	VINSERTPS $0x20, (BX), X8, X8; \
	VINSERTPS $0x30, (BX)(R11*1), X8, X8; \
	VADDPS    X8, X0, X0

#define STCOL4 \
	VMOVSS     X0, (DI); \
	VEXTRACTPS $1, X0, (DI)(R11*1); \
	VEXTRACTPS $2, X0, (BX); \
	VEXTRACTPS $3, X0, (BX)(R11*1)

#define NTTILEPTRS \
	MOVQ R12, AX; \
	MOVQ SI, BX; \
	MOVQ DX, CX

// func gemmDotAVX2(m, k, n int, a, b, c *float32, add bool)
TEXT ·gemmDotAVX2(SB), NOSPLIT, $0-49
	MOVQ  k+8(FP), R10
	MOVQ  R10, DX
	SHRQ  $3, DX
	MOVQ  R10, R9
	ANDQ  $7, R9
	SHLQ  $2, R10
	LEAQ  (R10)(R10*2), R8
	MOVQ  n+16(FP), R11
	SHLQ  $2, R11
	TESTQ R9, R9
	JZ    ntrows
	LOADMASK(R9, AX, BX)

ntrows:
	MOVQ a+24(FP), R12
	MOVQ c+40(FP), R13
	MOVQ m+0(FP), R14

r4:
	CMPQ R14, $4
	JLT  r1
	MOVQ b+32(FP), SI
	MOVQ R13, DI
	MOVQ n+16(FP), R15

r4c2:
	CMPQ   R15, $2
	JLT    r4c1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	NTTILEPTRS
	TESTQ  CX, CX
	JZ     r4c2tail

r4c2k:
	VMOVUPS     (BX), Y8
	VMOVUPS     (BX)(R10*1), Y9
	VMOVUPS     (AX), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VMOVUPS     (AX)(R10*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VMOVUPS     (AX)(R10*2), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VMOVUPS     (AX)(R8*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         r4c2k

r4c2tail:
	TESTQ       R9, R9
	JZ          r4c2red
	VMASKMOVPS  (BX), Y14, Y8
	VMASKMOVPS  (BX)(R10*1), Y14, Y9
	VMASKMOVPS  (AX), Y14, Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VMASKMOVPS  (AX)(R10*1), Y14, Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VMASKMOVPS  (AX)(R10*2), Y14, Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VMASKMOVPS  (AX)(R8*1), Y14, Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7

r4c2red:
	// X0 = [c00 c01 c10 c11], X4 = [c20 c21 c30 c31]
	REDUCE4(Y0, Y1, Y2, Y3, Y0, X0, X8)
	REDUCE4(Y4, Y5, Y6, Y7, Y4, X4, X8)
	LEAQ    (DI)(R11*2), BX
	CMPB    add+48(FP), $0
	JEQ     r4c2st
	VMOVSD  (DI), X8
	VMOVHPS (DI)(R11*1), X8, X8
	VADDPS  X8, X0, X0
	VMOVSD  (BX), X9
	VMOVHPS (BX)(R11*1), X9, X9
	VADDPS  X9, X4, X4

r4c2st:
	VMOVLPS X0, (DI)
	VMOVHPS X0, (DI)(R11*1)
	VMOVLPS X4, (BX)
	VMOVHPS X4, (BX)(R11*1)
	LEAQ    (SI)(R10*2), SI
	ADDQ    $8, DI
	SUBQ    $2, R15
	JMP     r4c2

r4c1:
	TESTQ  R15, R15
	JZ     r4end
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	NTTILEPTRS
	TESTQ  CX, CX
	JZ     r4c1tail

r4c1k:
	VMOVUPS     (BX), Y8
	VFMADD231PS (AX), Y8, Y0
	VFMADD231PS (AX)(R10*1), Y8, Y2
	VFMADD231PS (AX)(R10*2), Y8, Y4
	VFMADD231PS (AX)(R8*1), Y8, Y6
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         r4c1k

r4c1tail:
	TESTQ       R9, R9
	JZ          r4c1red
	VMASKMOVPS  (BX), Y14, Y8
	VMASKMOVPS  (AX), Y14, Y10
	VFMADD231PS Y8, Y10, Y0
	VMASKMOVPS  (AX)(R10*1), Y14, Y11
	VFMADD231PS Y8, Y11, Y2
	VMASKMOVPS  (AX)(R10*2), Y14, Y12
	VFMADD231PS Y8, Y12, Y4
	VMASKMOVPS  (AX)(R8*1), Y14, Y13
	VFMADD231PS Y8, Y13, Y6

r4c1red:
	// X0 = [c0 c1 c2 c3]: one column over four rows
	REDUCE4(Y0, Y2, Y4, Y6, Y0, X0, X8)
	LEAQ      (DI)(R11*2), BX
	CMPB      add+48(FP), $0
	JEQ       r4c1st
	ADDCOL4

r4c1st:
	STCOL4

r4end:
	LEAQ (R12)(R10*4), R12
	LEAQ (R13)(R11*4), R13
	SUBQ $4, R14
	JMP  r4

r1:
	TESTQ R14, R14
	JZ    ntdone
	MOVQ  b+32(FP), SI
	MOVQ  R13, DI
	MOVQ  n+16(FP), R15

r1c2:
	CMPQ   R15, $2
	JLT    r1c1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	NTTILEPTRS
	TESTQ  CX, CX
	JZ     r1c2tail

r1c2k:
	VMOVUPS     (AX), Y10
	VFMADD231PS (BX), Y10, Y0
	VFMADD231PS (BX)(R10*1), Y10, Y1
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         r1c2k

r1c2tail:
	TESTQ       R9, R9
	JZ          r1c2red
	VMASKMOVPS  (AX), Y14, Y10
	VMASKMOVPS  (BX), Y14, Y8
	VFMADD231PS Y8, Y10, Y0
	VMASKMOVPS  (BX)(R10*1), Y14, Y9
	VFMADD231PS Y9, Y10, Y1

r1c2red:
	REDUCE2(Y0, Y1, X0, X8)
	CMPB    add+48(FP), $0
	JEQ     r1c2st
	VMOVSD  (DI), X8
	VADDPS  X8, X0, X0

r1c2st:
	VMOVLPS X0, (DI)
	LEAQ    (SI)(R10*2), SI
	ADDQ    $8, DI
	SUBQ    $2, R15
	JMP     r1c2

r1c1:
	TESTQ  R15, R15
	JZ     r1end
	VXORPS Y0, Y0, Y0
	NTTILEPTRS
	TESTQ  CX, CX
	JZ     r1c1tail

r1c1k:
	VMOVUPS     (AX), Y10
	VFMADD231PS (BX), Y10, Y0
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         r1c1k

r1c1tail:
	TESTQ       R9, R9
	JZ          r1c1red
	VMASKMOVPS  (AX), Y14, Y10
	VMASKMOVPS  (BX), Y14, Y8
	VFMADD231PS Y8, Y10, Y0

r1c1red:
	REDUCE1(Y0, X0, X8)
	CMPB   add+48(FP), $0
	JEQ    r1c1st
	VADDSS (DI), X0, X0

r1c1st:
	VMOVSS X0, (DI)

r1end:
	ADDQ R10, R12
	ADDQ R11, R13
	DECQ R14
	JMP  r1

ntdone:
	VZEROUPPER
	RET

// Dot kernel, gemmDotAVX2's contract for even m. A vector holds two outputs,
// two A rows (one per 256-bit half) against one B row's 8-float block
// broadcast to both halves: lane l of each half sums k ≡ l mod 8, the last
// partial step loads zeros through K3 as VMASKMOVPS does, and each half is
// reduced by gemmDotAVX2's tree. Tiles are 4 rows by 8, 4 and 1 columns,
// then 2 rows by 4 and 1.
//
// Register plan: gemmDotAVX2's, except
//   R9 B rows 4..7 of an 8-column tile (k mod 8 lives in K3 instead)
//   SI B row block    Z0-Z15 accumulators (a row pair against B rows: in
//   the 8-column tile Z0-Z3 and Z4-Z7 the first pair, Z8-Z15 the second;
//   in the 4-column tiles Z0-Z3 the first pair, Z4-Z7 the second)
//   Z16-Z19 B   Z20, Z21 A row pairs   Z22 scratch   K3 tail mask

// ZMASK sets K to CX (0..7) leading ones; AX is clobbered.
#define ZMASK(K) \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K

// VHADDPS B, A, A on each 128-bit chunk: [A0+A1, A2+A3, B0+B1, B2+B3].
#define ZHADD(B, A, T) \
	VSHUFPS $0xDD, B, A, T; \
	VSHUFPS $0x88, B, A, A; \
	VADDPS  T, A, A

// REDUCE4 for two rows at once: A, B, C, E hold a row pair against four B
// rows; YA becomes [row 0's four sums, row 1's four sums].
#define ZREDUCE4(A, B, C, E, YA) \
	ZHADD(B, A, Z22); \
	ZHADD(E, C, Z22); \
	ZHADD(C, A, Z22); \
	VSHUFF32X4    $0xD8, A, A, A; \
	VEXTRACTF32X8 $1, A, Y22; \
	VADDPS        Y22, YA, YA

// Load an A row pair, or a B block into both halves; the *TAIL forms read
// only the K3 lanes.
#define DLOADA(LO, HI, YV, ZV) \
	VMOVUPS      LO, YV; \
	VINSERTF32X8 $1, HI, ZV, ZV

#define DLOADATAIL(LO, HI, YV, ZV) \
	VMOVUPS.Z    LO, K3, YV; \
	VMOVUPS.Z    HI, K3, Y22; \
	VINSERTF32X8 $1, Y22, ZV, ZV

#define DLOADBTAIL(ADDR, YV, ZV) \
	VMOVUPS.Z    ADDR, K3, YV; \
	VINSERTF32X8 $1, YV, ZV, ZV

#define DFMA4(A, C0, C1, C2, C3) \
	VFMADD231PS Z16, A, C0; \
	VFMADD231PS Z17, A, C1; \
	VFMADD231PS Z18, A, C2; \
	VFMADD231PS Z19, A, C3

// One C row pair's four columns at ROW0 and ROW1: accumulate into (Y15
// scratch) and store YA = [row 0, row 1].
#define DADDPAIR(ROW0, ROW1, YA) \
	VMOVUPS     ROW0, X15; \
	VINSERTF128 $1, ROW1, Y15, Y15; \
	VADDPS      Y15, YA, YA

#define DSTPAIR(ROW0, ROW1, YA, XA) \
	VMOVUPS      XA, ROW0; \
	VEXTRACTF128 $1, YA, ROW1

// func gemmDotAVX512(m, k, n int, a, b, c *float32, add bool)
TEXT ·gemmDotAVX512(SB), NOSPLIT, $0-49
	MOVQ k+8(FP), R10
	MOVQ R10, DX
	SHRQ $3, DX
	MOVQ R10, CX
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R8
	MOVQ n+16(FP), R11
	SHLQ $2, R11
	ANDQ $7, CX
	ZMASK(K3)
	MOVQ a+24(FP), R12
	MOVQ c+40(FP), R13
	MOVQ m+0(FP), R14

d4:
	CMPQ R14, $4
	JLT  d2
	MOVQ b+32(FP), SI
	MOVQ R13, DI
	MOVQ n+16(FP), R15

d4c8:
	CMPQ     R15, $8
	JLT      d4c4
	ZZERO4(Z0, Z1, Z2, Z3)
	ZZERO4(Z4, Z5, Z6, Z7)
	ZZERO4(Z8, Z9, Z10, Z11)
	ZZERO4(Z12, Z13, Z14, Z15)
	NTTILEPTRS
	LEAQ     (BX)(R10*4), R9
	TESTQ    CX, CX
	JZ       d4c8tail

d4c8k:
	DLOADA((AX), (AX)(R10*1), Y20, Z20)
	DLOADA((AX)(R10*2), (AX)(R8*1), Y21, Z21)
	VBROADCASTF32X8 (BX), Z16
	VBROADCASTF32X8 (BX)(R10*1), Z17
	VBROADCASTF32X8 (BX)(R10*2), Z18
	VBROADCASTF32X8 (BX)(R8*1), Z19
	DFMA4(Z20, Z0, Z1, Z2, Z3)
	DFMA4(Z21, Z8, Z9, Z10, Z11)
	VBROADCASTF32X8 (R9), Z16
	VBROADCASTF32X8 (R9)(R10*1), Z17
	VBROADCASTF32X8 (R9)(R10*2), Z18
	VBROADCASTF32X8 (R9)(R8*1), Z19
	DFMA4(Z20, Z4, Z5, Z6, Z7)
	DFMA4(Z21, Z12, Z13, Z14, Z15)
	ADDQ            $32, AX
	ADDQ            $32, BX
	ADDQ            $32, R9
	DECQ            CX
	JNZ             d4c8k

d4c8tail:
	KORTESTW K3, K3
	JZ       d4c8red
	DLOADATAIL((AX), (AX)(R10*1), Y20, Z20)
	DLOADATAIL((AX)(R10*2), (AX)(R8*1), Y21, Z21)
	DLOADBTAIL((BX), Y16, Z16)
	DLOADBTAIL((BX)(R10*1), Y17, Z17)
	DLOADBTAIL((BX)(R10*2), Y18, Z18)
	DLOADBTAIL((BX)(R8*1), Y19, Z19)
	DFMA4(Z20, Z0, Z1, Z2, Z3)
	DFMA4(Z21, Z8, Z9, Z10, Z11)
	DLOADBTAIL((R9), Y16, Z16)
	DLOADBTAIL((R9)(R10*1), Y17, Z17)
	DLOADBTAIL((R9)(R10*2), Y18, Z18)
	DLOADBTAIL((R9)(R8*1), Y19, Z19)
	DFMA4(Z20, Z4, Z5, Z6, Z7)
	DFMA4(Z21, Z12, Z13, Z14, Z15)

d4c8red:
	ZREDUCE4(Z0, Z1, Z2, Z3, Y0)
	ZREDUCE4(Z4, Z5, Z6, Z7, Y4)
	ZREDUCE4(Z8, Z9, Z10, Z11, Y8)
	ZREDUCE4(Z12, Z13, Z14, Z15, Y12)
	LEAQ (DI)(R11*2), BX
	CMPB add+48(FP), $0
	JEQ  d4c8st
	DADDPAIR((DI), (DI)(R11*1), Y0)
	DADDPAIR(16(DI), 16(DI)(R11*1), Y4)
	DADDPAIR((BX), (BX)(R11*1), Y8)
	DADDPAIR(16(BX), 16(BX)(R11*1), Y12)

d4c8st:
	DSTPAIR((DI), (DI)(R11*1), Y0, X0)
	DSTPAIR(16(DI), 16(DI)(R11*1), Y4, X4)
	DSTPAIR((BX), (BX)(R11*1), Y8, X8)
	DSTPAIR(16(BX), 16(BX)(R11*1), Y12, X12)
	LEAQ (SI)(R10*8), SI
	ADDQ $32, DI
	SUBQ $8, R15
	JMP  d4c8

d4c4:
	CMPQ  R15, $4
	JLT   d4c1
	ZZERO4(Z0, Z1, Z2, Z3)
	ZZERO4(Z4, Z5, Z6, Z7)
	NTTILEPTRS
	TESTQ CX, CX
	JZ    d4c4tail

d4c4k:
	VBROADCASTF32X8 (BX), Z16
	VBROADCASTF32X8 (BX)(R10*1), Z17
	VBROADCASTF32X8 (BX)(R10*2), Z18
	VBROADCASTF32X8 (BX)(R8*1), Z19
	DLOADA((AX), (AX)(R10*1), Y20, Z20)
	DLOADA((AX)(R10*2), (AX)(R8*1), Y21, Z21)
	DFMA4(Z20, Z0, Z1, Z2, Z3)
	DFMA4(Z21, Z4, Z5, Z6, Z7)
	ADDQ            $32, AX
	ADDQ            $32, BX
	DECQ            CX
	JNZ             d4c4k

d4c4tail:
	KORTESTW K3, K3
	JZ    d4c4red
	DLOADBTAIL((BX), Y16, Z16)
	DLOADBTAIL((BX)(R10*1), Y17, Z17)
	DLOADBTAIL((BX)(R10*2), Y18, Z18)
	DLOADBTAIL((BX)(R8*1), Y19, Z19)
	DLOADATAIL((AX), (AX)(R10*1), Y20, Z20)
	DLOADATAIL((AX)(R10*2), (AX)(R8*1), Y21, Z21)
	DFMA4(Z20, Z0, Z1, Z2, Z3)
	DFMA4(Z21, Z4, Z5, Z6, Z7)

d4c4red:
	ZREDUCE4(Z0, Z1, Z2, Z3, Y0)
	ZREDUCE4(Z4, Z5, Z6, Z7, Y4)
	LEAQ (DI)(R11*2), BX
	CMPB add+48(FP), $0
	JEQ  d4c4st
	DADDPAIR((DI), (DI)(R11*1), Y0)
	DADDPAIR((BX), (BX)(R11*1), Y4)

d4c4st:
	DSTPAIR((DI), (DI)(R11*1), Y0, X0)
	DSTPAIR((BX), (BX)(R11*1), Y4, X4)
	LEAQ (SI)(R10*4), SI
	ADDQ $16, DI
	SUBQ $4, R15
	JMP  d4c4

d4c1:
	TESTQ  R15, R15
	JZ     d4end
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	NTTILEPTRS
	TESTQ  CX, CX
	JZ     d4c1tail

d4c1k:
	VBROADCASTF32X8 (BX), Z16
	DLOADA((AX), (AX)(R10*1), Y20, Z20)
	DLOADA((AX)(R10*2), (AX)(R8*1), Y21, Z21)
	VFMADD231PS     Z16, Z20, Z0
	VFMADD231PS     Z16, Z21, Z1
	ADDQ            $32, AX
	ADDQ            $32, BX
	DECQ            CX
	JNZ             d4c1k

d4c1tail:
	KORTESTW    K3, K3
	JZ          d4c1red
	DLOADBTAIL((BX), Y16, Z16)
	DLOADATAIL((AX), (AX)(R10*1), Y20, Z20)
	DLOADATAIL((AX)(R10*2), (AX)(R8*1), Y21, Z21)
	VFMADD231PS Z16, Z20, Z0
	VFMADD231PS Z16, Z21, Z1

d4c1red:
	// Rows i..i+3 in Y0, Y2, Y1, Y3, then gemmDotAVX2's one-column reduction.
	VEXTRACTF32X8 $1, Z0, Y2
	VEXTRACTF32X8 $1, Z1, Y3
	REDUCE4(Y0, Y2, Y1, Y3, Y0, X0, X8)
	LEAQ          (DI)(R11*2), BX
	CMPB          add+48(FP), $0
	JEQ           d4c1st
	ADDCOL4

d4c1st:
	STCOL4
	ADDQ R10, SI
	ADDQ $4, DI
	DECQ R15
	JMP  d4c1

d4end:
	LEAQ (R12)(R10*4), R12
	LEAQ (R13)(R11*4), R13
	SUBQ $4, R14
	JMP  d4

d2:
	TESTQ R14, R14
	JZ    ddone
	MOVQ  b+32(FP), SI
	MOVQ  R13, DI
	MOVQ  n+16(FP), R15

d2c4:
	CMPQ  R15, $4
	JLT   d2c1
	ZZERO4(Z0, Z1, Z2, Z3)
	NTTILEPTRS
	TESTQ CX, CX
	JZ    d2c4tail

d2c4k:
	VBROADCASTF32X8 (BX), Z16
	VBROADCASTF32X8 (BX)(R10*1), Z17
	VBROADCASTF32X8 (BX)(R10*2), Z18
	VBROADCASTF32X8 (BX)(R8*1), Z19
	DLOADA((AX), (AX)(R10*1), Y20, Z20)
	DFMA4(Z20, Z0, Z1, Z2, Z3)
	ADDQ            $32, AX
	ADDQ            $32, BX
	DECQ            CX
	JNZ             d2c4k

d2c4tail:
	KORTESTW K3, K3
	JZ    d2c4red
	DLOADBTAIL((BX), Y16, Z16)
	DLOADBTAIL((BX)(R10*1), Y17, Z17)
	DLOADBTAIL((BX)(R10*2), Y18, Z18)
	DLOADBTAIL((BX)(R8*1), Y19, Z19)
	DLOADATAIL((AX), (AX)(R10*1), Y20, Z20)
	DFMA4(Z20, Z0, Z1, Z2, Z3)

d2c4red:
	ZREDUCE4(Z0, Z1, Z2, Z3, Y0)
	CMPB add+48(FP), $0
	JEQ  d2c4st
	DADDPAIR((DI), (DI)(R11*1), Y0)

d2c4st:
	DSTPAIR((DI), (DI)(R11*1), Y0, X0)
	LEAQ (SI)(R10*4), SI
	ADDQ $16, DI
	SUBQ $4, R15
	JMP  d2c4

d2c1:
	TESTQ  R15, R15
	JZ     ddone
	VXORPS Z0, Z0, Z0
	NTTILEPTRS
	TESTQ  CX, CX
	JZ     d2c1tail

d2c1k:
	VBROADCASTF32X8 (BX), Z16
	DLOADA((AX), (AX)(R10*1), Y20, Z20)
	VFMADD231PS     Z16, Z20, Z0
	ADDQ            $32, AX
	ADDQ            $32, BX
	DECQ            CX
	JNZ             d2c1k

d2c1tail:
	KORTESTW    K3, K3
	JZ          d2c1red
	DLOADBTAIL((BX), Y16, Z16)
	DLOADATAIL((AX), (AX)(R10*1), Y20, Z20)
	VFMADD231PS Z16, Z20, Z0

d2c1red:
	// X0 = [c_i, c_i+1, …]
	VEXTRACTF32X8 $1, Z0, Y1
	REDUCE2(Y0, Y1, X0, X8)
	CMPB          add+48(FP), $0
	JEQ           d2c1st
	VMOVSS        (DI), X8
	VINSERTPS     $0x10, (DI)(R11*1), X8, X8
	VADDPS        X8, X0, X0

d2c1st:
	VMOVSS     X0, (DI)
	VEXTRACTPS $1, X0, (DI)(R11*1)
	ADDQ       R10, SI
	ADDQ       $4, DI
	DECQ       R15
	JMP        d2c1

ddone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Level-1 kernels. Each element of axpy/addTo is one lane-independent
// operation.
// ---------------------------------------------------------------------------

// func axpyAVX2(alpha float32, x, y *float32, n int)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

axpy32:
	CMPQ        CX, $32
	JLT         axpy8
	VMOVUPS     (DI), Y0
	VMOVUPS     32(DI), Y1
	VMOVUPS     64(DI), Y2
	VMOVUPS     96(DI), Y3
	VFMADD231PS (SI), Y15, Y0
	VFMADD231PS 32(SI), Y15, Y1
	VFMADD231PS 64(SI), Y15, Y2
	VFMADD231PS 96(SI), Y15, Y3
	VMOVUPS     Y0, (DI)
	VMOVUPS     Y1, 32(DI)
	VMOVUPS     Y2, 64(DI)
	VMOVUPS     Y3, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $32, CX
	JMP         axpy32

axpy8:
	CMPQ        CX, $8
	JLT         axpy4
	VMOVUPS     (DI), Y0
	VFMADD231PS (SI), Y15, Y0
	VMOVUPS     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JMP         axpy8

axpy4:
	CMPQ        CX, $4
	JLT         axpy1
	VMOVUPS     (DI), X0
	VFMADD231PS (SI), X15, X0
	VMOVUPS     X0, (DI)
	ADDQ        $16, SI
	ADDQ        $16, DI
	SUBQ        $4, CX

axpy1:
	TESTQ       CX, CX
	JZ          axpydone
	VMOVSS      (DI), X0
	VFMADD231SS (SI), X15, X0
	VMOVSS      X0, (DI)
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        CX
	JMP         axpy1

axpydone:
	VZEROUPPER
	RET

// func addToAVX2(dst, src *float32, n int)
TEXT ·addToAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add32:
	CMPQ    CX, $32
	JLT     add8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     add32

add8:
	CMPQ    CX, $8
	JLT     add4
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     add8

add4:
	CMPQ    CX, $4
	JLT     add1
	VMOVUPS (DI), X0
	VADDPS  (SI), X0, X0
	VMOVUPS X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

add1:
	TESTQ  CX, CX
	JZ     adddone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Dense-tower epilogues. Both walk a rows×cols row-major block one column
// strip at a time (32, 8, 4, then single columns), the strip's bias or bias
// gradient held in registers over the whole row loop. Every operation is
// exact, so the portable twins in tensor.go give the same bits.
// ---------------------------------------------------------------------------

// func addBiasAVX2(y, bias *float32, rows, cols int, relu bool)
//
// y[i][j] += bias[j] and, with relu set, y[i][j] = y[i][j] > 0 ? y[i][j] : 0.
// VMAXPS returns its second source (Go's first operand, the zero register)
// when either is NaN or both are zero, so a NaN sum and −0 become +0, as the
// scalar comparison makes them; without relu the blend keeps the plain sum.
TEXT ·addBiasAVX2(SB), NOSPLIT, $0-33
	MOVQ         y+0(FP), DI
	MOVQ         bias+8(FP), SI
	MOVQ         rows+16(FP), R8
	MOVQ         cols+24(FP), CX
	MOVBQZX      relu+32(FP), AX
	MOVQ         CX, DX
	SHLQ         $2, DX               // row stride in bytes
	VXORPS       Y15, Y15, Y15
	NEGQ         AX
	MOVQ         AX, X14
	VPBROADCASTD X14, Y14             // all ones with relu: the blend takes the clamped lane

bias32:
	CMPQ      CX, $32
	JLT       bias8
	VMOVUPS   (SI), Y8
	VMOVUPS   32(SI), Y9
	VMOVUPS   64(SI), Y10
	VMOVUPS   96(SI), Y11
	MOVQ      DI, R9
	MOVQ      R8, R10

bias32row:
	VMOVUPS   (R9), Y0
	VMOVUPS   32(R9), Y1
	VMOVUPS   64(R9), Y2
	VMOVUPS   96(R9), Y3
	VADDPS    Y8, Y0, Y0
	VADDPS    Y9, Y1, Y1
	VADDPS    Y10, Y2, Y2
	VADDPS    Y11, Y3, Y3
	VMAXPS    Y15, Y0, Y4
	VMAXPS    Y15, Y1, Y5
	VMAXPS    Y15, Y2, Y6
	VMAXPS    Y15, Y3, Y7
	VBLENDVPS Y14, Y4, Y0, Y0
	VBLENDVPS Y14, Y5, Y1, Y1
	VBLENDVPS Y14, Y6, Y2, Y2
	VBLENDVPS Y14, Y7, Y3, Y3
	VMOVUPS   Y0, (R9)
	VMOVUPS   Y1, 32(R9)
	VMOVUPS   Y2, 64(R9)
	VMOVUPS   Y3, 96(R9)
	ADDQ      DX, R9
	DECQ      R10
	JNZ       bias32row
	ADDQ      $128, DI
	ADDQ      $128, SI
	SUBQ      $32, CX
	JMP       bias32

bias8:
	CMPQ      CX, $8
	JLT       bias4
	VMOVUPS   (SI), Y8
	MOVQ      DI, R9
	MOVQ      R8, R10

bias8row:
	VMOVUPS   (R9), Y0
	VADDPS    Y8, Y0, Y0
	VMAXPS    Y15, Y0, Y4
	VBLENDVPS Y14, Y4, Y0, Y0
	VMOVUPS   Y0, (R9)
	ADDQ      DX, R9
	DECQ      R10
	JNZ       bias8row
	ADDQ      $32, DI
	ADDQ      $32, SI
	SUBQ      $8, CX
	JMP       bias8

bias4:
	CMPQ      CX, $4
	JLT       bias1
	VMOVUPS   (SI), X8
	MOVQ      DI, R9
	MOVQ      R8, R10

bias4row:
	VMOVUPS   (R9), X0
	VADDPS    X8, X0, X0
	VMAXPS    X15, X0, X4
	VBLENDVPS X14, X4, X0, X0
	VMOVUPS   X0, (R9)
	ADDQ      DX, R9
	DECQ      R10
	JNZ       bias4row
	ADDQ      $16, DI
	ADDQ      $16, SI
	SUBQ      $4, CX

bias1:
	TESTQ     CX, CX
	JZ        biasdone
	VMOVSS    (SI), X8
	MOVQ      DI, R9
	MOVQ      R8, R10

bias1row:
	VMOVSS    (R9), X0
	VADDSS    X8, X0, X0
	VMAXSS    X15, X0, X4
	VBLENDVPS X14, X4, X0, X0
	VMOVSS    X0, (R9)
	ADDQ      DX, R9
	DECQ      R10
	JNZ       bias1row
	ADDQ      $4, DI
	ADDQ      $4, SI
	DECQ      CX
	JMP       bias1

biasdone:
	VZEROUPPER
	RET

// func reluGradAVX2(dy, y, db *float32, rows, cols int)
//
// dy[i][j] &= (y[i][j] > 0), an ordered compare so a NaN y masks like a
// non-positive one, and db[j] += dy[i][j] after masking, rows in ascending
// order with db as the first source: the adds AddTo(db, row i) would make.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-40
	MOVQ   dy+0(FP), DI
	MOVQ   y+8(FP), SI
	MOVQ   db+16(FP), BX
	MOVQ   rows+24(FP), R8
	MOVQ   cols+32(FP), CX
	MOVQ   CX, DX
	SHLQ   $2, DX                     // row stride in bytes
	VXORPS Y15, Y15, Y15

grad32:
	CMPQ    CX, $32
	JLT     grad8
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VMOVUPS 64(BX), Y10
	VMOVUPS 96(BX), Y11
	MOVQ    DI, R9
	MOVQ    SI, R11
	MOVQ    R8, R10

grad32row:
	VMOVUPS (R11), Y0
	VMOVUPS 32(R11), Y1
	VMOVUPS 64(R11), Y2
	VMOVUPS 96(R11), Y3
	VCMPPS  $0x1E, Y15, Y0, Y0
	VCMPPS  $0x1E, Y15, Y1, Y1
	VCMPPS  $0x1E, Y15, Y2, Y2
	VCMPPS  $0x1E, Y15, Y3, Y3
	VANDPS  (R9), Y0, Y0
	VANDPS  32(R9), Y1, Y1
	VANDPS  64(R9), Y2, Y2
	VANDPS  96(R9), Y3, Y3
	VMOVUPS Y0, (R9)
	VMOVUPS Y1, 32(R9)
	VMOVUPS Y2, 64(R9)
	VMOVUPS Y3, 96(R9)
	VADDPS  Y0, Y8, Y8
	VADDPS  Y1, Y9, Y9
	VADDPS  Y2, Y10, Y10
	VADDPS  Y3, Y11, Y11
	ADDQ    DX, R9
	ADDQ    DX, R11
	DECQ    R10
	JNZ     grad32row
	VMOVUPS Y8, (BX)
	VMOVUPS Y9, 32(BX)
	VMOVUPS Y10, 64(BX)
	VMOVUPS Y11, 96(BX)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, BX
	SUBQ    $32, CX
	JMP     grad32

grad8:
	CMPQ    CX, $8
	JLT     grad4
	VMOVUPS (BX), Y8
	MOVQ    DI, R9
	MOVQ    SI, R11
	MOVQ    R8, R10

grad8row:
	VMOVUPS (R11), Y0
	VCMPPS  $0x1E, Y15, Y0, Y0
	VANDPS  (R9), Y0, Y0
	VMOVUPS Y0, (R9)
	VADDPS  Y0, Y8, Y8
	ADDQ    DX, R9
	ADDQ    DX, R11
	DECQ    R10
	JNZ     grad8row
	VMOVUPS Y8, (BX)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JMP     grad8

grad4:
	CMPQ    CX, $4
	JLT     grad1
	VMOVUPS (BX), X8
	MOVQ    DI, R9
	MOVQ    SI, R11
	MOVQ    R8, R10

grad4row:
	VMOVUPS (R11), X0
	VCMPPS  $0x1E, X15, X0, X0
	VANDPS  (R9), X0, X0
	VMOVUPS X0, (R9)
	VADDPS  X0, X8, X8
	ADDQ    DX, R9
	ADDQ    DX, R11
	DECQ    R10
	JNZ     grad4row
	VMOVUPS X8, (BX)
	ADDQ    $16, DI
	ADDQ    $16, SI
	ADDQ    $16, BX
	SUBQ    $4, CX

grad1:
	TESTQ   CX, CX
	JZ      graddone
	VMOVSS  (BX), X8
	MOVQ    DI, R9
	MOVQ    SI, R11
	MOVQ    R8, R10

grad1row:
	VMOVSS  (R11), X0
	VCMPSS  $0x1E, X15, X0, X0
	VMOVSS  (R9), X4
	VANDPS  X4, X0, X0
	VMOVSS  X0, (R9)
	VADDSS  X0, X8, X8
	ADDQ    DX, R9
	ADDQ    DX, R11
	DECQ    R10
	JNZ     grad1row
	VMOVSS  X8, (BX)
	ADDQ    $4, DI
	ADDQ    $4, SI
	ADDQ    $4, BX
	DECQ    CX
	JMP     grad1

graddone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Feature detection (internal/cpu is not importable from this module).
// ---------------------------------------------------------------------------

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
