//go:build amd64 && !purego

#include "textflag.h"

// Lane-block kernels (lanes.go). A lane vector holds one element of each of
// eight samples, so every arithmetic instruction below is vertical: lane l
// computes sample l's result and nothing else, with the operations, in the
// order, of the product kernel in gemm_amd64.s that the per-sample layer
// called (DESIGN.md §12).

// TRANSPOSE8 transposes one 8×8 block: row r, the eight floats at
// SI + r·R8, becomes element r of the eight rows at DI + c·R10 (R12 = 3·R8,
// R13 = 3·R10; AX and BX are clobbered). Rows 0-3 and 4-7 are loaded into
// the two 128-bit halves, so each half is one 4×4 transpose: unpack pairs of
// rows, then pairs of pairs.
#define TRANSPOSE8 \
	LEAQ        (SI)(R8*4), AX; \
	LEAQ        (DI)(R10*4), BX; \
	VMOVUPS     (SI), X0; \
	VINSERTF128 $1, (AX), Y0, Y0; \
	VMOVUPS     (SI)(R8*1), X1; \
	VINSERTF128 $1, (AX)(R8*1), Y1, Y1; \
	VMOVUPS     (SI)(R8*2), X2; \
	VINSERTF128 $1, (AX)(R8*2), Y2, Y2; \
	VMOVUPS     (SI)(R12*1), X3; \
	VINSERTF128 $1, (AX)(R12*1), Y3, Y3; \
	VMOVUPS     16(SI), X4; \
	VINSERTF128 $1, 16(AX), Y4, Y4; \
	VMOVUPS     16(SI)(R8*1), X5; \
	VINSERTF128 $1, 16(AX)(R8*1), Y5, Y5; \
	VMOVUPS     16(SI)(R8*2), X6; \
	VINSERTF128 $1, 16(AX)(R8*2), Y6, Y6; \
	VMOVUPS     16(SI)(R12*1), X7; \
	VINSERTF128 $1, 16(AX)(R12*1), Y7, Y7; \
	VUNPCKLPS   Y1, Y0, Y8; \
	VUNPCKHPS   Y1, Y0, Y9; \
	VUNPCKLPS   Y3, Y2, Y10; \
	VUNPCKHPS   Y3, Y2, Y11; \
	VSHUFPS     $0x44, Y10, Y8, Y0; \
	VSHUFPS     $0xEE, Y10, Y8, Y1; \
	VSHUFPS     $0x44, Y11, Y9, Y2; \
	VSHUFPS     $0xEE, Y11, Y9, Y3; \
	VUNPCKLPS   Y5, Y4, Y8; \
	VUNPCKHPS   Y5, Y4, Y9; \
	VUNPCKLPS   Y7, Y6, Y10; \
	VUNPCKHPS   Y7, Y6, Y11; \
	VSHUFPS     $0x44, Y10, Y8, Y4; \
	VSHUFPS     $0xEE, Y10, Y8, Y5; \
	VSHUFPS     $0x44, Y11, Y9, Y6; \
	VSHUFPS     $0xEE, Y11, Y9, Y7; \
	VMOVUPS     Y0, (DI); \
	VMOVUPS     Y1, (DI)(R10*1); \
	VMOVUPS     Y2, (DI)(R10*2); \
	VMOVUPS     Y3, (DI)(R13*1); \
	VMOVUPS     Y4, (BX); \
	VMOVUPS     Y5, (BX)(R10*1); \
	VMOVUPS     Y6, (BX)(R10*2); \
	VMOVUPS     Y7, (BX)(R13*1)

// func lanesInAVX2(feats, tiles int, srcs *[]float32, ld int, dst *float32, fs int)
//
// For each of feats features, the first 8·tiles columns of eight rows of
// srcs[f] (row stride ld floats) become the first 8·tiles lane vectors of
// dst's feature f, fs floats apart.
TEXT ·lanesInAVX2(SB), NOSPLIT, $0-48
	MOVQ feats+0(FP), R14
	MOVQ srcs+16(FP), R15
	MOVQ ld+24(FP), R8
	SHLQ $2, R8
	MOVQ dst+32(FP), R9
	MOVQ fs+40(FP), R11
	SHLQ $2, R11
	MOVQ $32, R10
	LEAQ (R8)(R8*2), R12
	MOVQ $96, R13

liblock:
	MOVQ (R15), SI
	MOVQ R9, DI
	MOVQ tiles+8(FP), CX

litile:
	TRANSPOSE8
	ADDQ $32, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  litile
	ADDQ $24, R15
	ADDQ R11, R9
	DECQ R14
	JNZ  liblock
	VZEROUPPER
	RET

// func lanesOutAVX2(feats, tiles int, src *float32, fs int, dsts *[]float32, ld int)
//
// lanesInAVX2 backwards: the first 8·tiles lane vectors of src's feature f
// become the first 8·tiles columns of eight rows of dsts[f].
TEXT ·lanesOutAVX2(SB), NOSPLIT, $0-48
	MOVQ feats+0(FP), R14
	MOVQ src+16(FP), R9
	MOVQ fs+24(FP), R11
	SHLQ $2, R11
	MOVQ dsts+32(FP), R15
	MOVQ ld+40(FP), R10
	SHLQ $2, R10
	MOVQ $32, R8
	MOVQ $96, R12
	LEAQ (R10)(R10*2), R13

loblock:
	MOVQ R9, SI
	MOVQ (R15), DI
	MOVQ tiles+8(FP), CX

lotile:
	TRANSPOSE8
	ADDQ $256, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  lotile
	ADDQ $24, R15
	ADDQ R11, R9
	DECQ R14
	JNZ  loblock
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Pair dots: out[p] = z_i·z_j lane by lane for the strict lower triangle,
// p = i(i-1)/2 + j, with z f features of d lane vectors, fs floats apart.
// For d ≥ 8 each output is the dot kernel's: eight chains, chain l summing
// k ≡ l mod 8 from +0, then, when 8 ∤ d, one more step in which chains
// l < d mod 8 take their last product and the others add the +0 a masked
// load gives them, then the tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). For
// d < 8 it is the row-broadcast kernel's one chain over k, which is what NT
// runs at that k (ntDotMinK).
//
// Register plan:
//   AX z_i cursor   BX z_j cursor   CX k-step counter   DX full k-steps
//   R9 d mod 8      R10 feature bytes (fs·4)   R11 i   R12 z   R13 z_i
//   R14 f           R15 pairs left in row i    SI z_j   DI out
//   Y0-Y7 chains    Y8, Y9 z_i     Y15 +0
// ---------------------------------------------------------------------------

// func pairDotsAVX2(f, d, fs int, z, out *float32)
TEXT ·pairDotsAVX2(SB), NOSPLIT, $0-40
	MOVQ   f+0(FP), R14
	MOVQ   d+8(FP), DX
	MOVQ   fs+16(FP), R10
	SHLQ   $2, R10
	MOVQ   z+24(FP), R12
	MOVQ   out+32(FP), DI
	MOVQ   DX, R9
	ANDQ   $7, R9
	SHRQ   $3, DX
	VXORPS Y15, Y15, Y15
	LEAQ   (R12)(R10*1), R13
	MOVQ   $1, R11
	TESTQ  DX, DX
	JZ     pdchain

pdrow:
	CMPQ R11, R14
	JGE  pddone
	MOVQ R12, SI
	MOVQ R11, R15

pdpair:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   R13, AX
	MOVQ   SI, BX
	MOVQ   DX, CX

pdk:
	VMOVUPS     (AX), Y8
	VFMADD231PS (BX), Y8, Y0
	VMOVUPS     32(AX), Y9
	VFMADD231PS 32(BX), Y9, Y1
	VMOVUPS     64(AX), Y8
	VFMADD231PS 64(BX), Y8, Y2
	VMOVUPS     96(AX), Y9
	VFMADD231PS 96(BX), Y9, Y3
	VMOVUPS     128(AX), Y8
	VFMADD231PS 128(BX), Y8, Y4
	VMOVUPS     160(AX), Y9
	VFMADD231PS 160(BX), Y9, Y5
	VMOVUPS     192(AX), Y8
	VFMADD231PS 192(BX), Y8, Y6
	VMOVUPS     224(AX), Y9
	VFMADD231PS 224(BX), Y9, Y7
	ADDQ        $256, AX
	ADDQ        $256, BX
	DECQ        CX
	JNZ         pdk

	TESTQ       R9, R9
	JZ          pdtree
	VMOVUPS     (AX), Y8
	VFMADD231PS (BX), Y8, Y0
	CMPQ        R9, $1
	JEQ         pdpad1
	VMOVUPS     32(AX), Y9
	VFMADD231PS 32(BX), Y9, Y1
	CMPQ        R9, $2
	JEQ         pdpad2
	VMOVUPS     64(AX), Y8
	VFMADD231PS 64(BX), Y8, Y2
	CMPQ        R9, $3
	JEQ         pdpad3
	VMOVUPS     96(AX), Y9
	VFMADD231PS 96(BX), Y9, Y3
	CMPQ        R9, $4
	JEQ         pdpad4
	VMOVUPS     128(AX), Y8
	VFMADD231PS 128(BX), Y8, Y4
	CMPQ        R9, $5
	JEQ         pdpad5
	VMOVUPS     160(AX), Y9
	VFMADD231PS 160(BX), Y9, Y5
	CMPQ        R9, $6
	JEQ         pdpad6
	VMOVUPS     192(AX), Y8
	VFMADD231PS 192(BX), Y8, Y6
	JMP         pdpad7

pdpad1:
	VADDPS Y15, Y1, Y1

pdpad2:
	VADDPS Y15, Y2, Y2

pdpad3:
	VADDPS Y15, Y3, Y3

pdpad4:
	VADDPS Y15, Y4, Y4

pdpad5:
	VADDPS Y15, Y5, Y5

pdpad6:
	VADDPS Y15, Y6, Y6

pdpad7:
	VADDPS Y15, Y7, Y7

pdtree:
	VADDPS  Y1, Y0, Y0
	VADDPS  Y3, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VADDPS  Y5, Y4, Y4
	VADDPS  Y7, Y6, Y6
	VADDPS  Y6, Y4, Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R10, SI
	DECQ    R15
	JNZ     pdpair
	ADDQ    R10, R13
	INCQ    R11
	JMP     pdrow

pdchain:
	CMPQ R11, R14
	JGE  pddone
	MOVQ R12, SI
	MOVQ R11, R15

pdcpair:
	VXORPS Y0, Y0, Y0
	MOVQ   R13, AX
	MOVQ   SI, BX
	MOVQ   R9, CX

pdck:
	VMOVUPS     (AX), Y8
	VFMADD231PS (BX), Y8, Y0
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         pdck
	VMOVUPS     Y0, (DI)
	ADDQ        $32, DI
	ADDQ        R10, SI
	DECQ        R15
	JNZ         pdcpair
	ADDQ        R10, R13
	INCQ        R11
	JMP         pdchain

pddone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Pair gradient: dz_i[c] = Σ_j S_ij·z_j[c] lane by lane, j ascending from +0,
// the row-broadcast kernel's chain for C = S·Z. S is symmetric with a +0
// diagonal and read from the pair vectors s in pairDots' order: row i takes
// pairs (i, 0..i-1) contiguously, then its +0, then (i+1, i), (i+2, i), …,
// which sit i+1, i+2, … vectors apart. The kernel writes the first cols
// columns of each feature, fs floats apart in z and dz, in column tiles of
// 8 and 1 vectors, each tile over every row before the next: a tile's
// columns of all f features stay in L1 while the rows walk them.
//
// Register plan:
//   AX S cursor   BX z cursor (feature j, the tile's column)   CX j counter
//   DX upper S step   SI the tile's column in feature 0   DI dz cursor
//   R8 pair (i, 0)    R9 pair (i+1, i)   R10 feature bytes (fs·4)
//   R11 i   R12 the tile's column in dz row i   R13 the tile's column in z
//   R14 f   R15 columns left
//   Y0-Y7 accumulators   Y8 S_ij   Y15 +0
// ---------------------------------------------------------------------------

#define GRAD8(S) \
	VFMADD231PS (BX), S, Y0; \
	VFMADD231PS 32(BX), S, Y1; \
	VFMADD231PS 64(BX), S, Y2; \
	VFMADD231PS 96(BX), S, Y3; \
	VFMADD231PS 128(BX), S, Y4; \
	VFMADD231PS 160(BX), S, Y5; \
	VFMADD231PS 192(BX), S, Y6; \
	VFMADD231PS 224(BX), S, Y7

#define GRAD1(S) VFMADD231PS (BX), S, Y0

// Start a column tile AX bytes into z and dz, whose bases the caller has
// loaded into R13 and R12 (and pair (0, 0) into R8), at row i = 0.
#define TILEBASES \
	ADDQ AX, R13; \
	ADDQ AX, R12; \
	XORQ R11, R11

// Start row i: R9 at pair (i+1, i), 2i vectors past pair (i, 0); SI at the
// tile's column of feature 0, DI at the tile's column of dz row i.
#define GRADROW \
	MOVQ R11, DX; \
	SHLQ $6, DX; \
	LEAQ (R8)(DX*1), R9; \
	MOVQ R13, SI; \
	MOVQ R12, DI

// Point the cursors at the row-i chain: AX at pair (i, 0), BX at feature 0,
// CX at i lower pairs.
#define GRADHEAD \
	MOVQ SI, BX; \
	MOVQ R8, AX; \
	MOVQ R11, CX

// After the diagonal: AX at pair (i+1, i), DX its distance to (i+2, i),
// CX at f-1-i upper pairs.
#define GRADUPPER \
	ADDQ R10, BX; \
	MOVQ R9, AX; \
	LEAQ 1(R11), DX; \
	SHLQ $5, DX; \
	MOVQ R14, CX; \
	SUBQ R11, CX; \
	DECQ CX

// End row i: pair (i+1, 0) is i vectors past pair (i, 0).
#define GRADROWEND \
	MOVQ R11, DX; \
	SHLQ $5, DX; \
	ADDQ DX, R8; \
	ADDQ R10, R12; \
	INCQ R11

// func pairGradAVX2(f, fs, cols int, s, z, dz *float32)
TEXT ·pairGradAVX2(SB), NOSPLIT, $0-48
	MOVQ   f+0(FP), R14
	MOVQ   fs+8(FP), R10
	SHLQ   $2, R10
	MOVQ   cols+16(FP), R15
	VXORPS Y15, Y15, Y15

pg8:
	CMPQ R15, $8
	JLT  pg1
	MOVQ s+24(FP), R8
	MOVQ z+32(FP), R13
	MOVQ dz+40(FP), R12
	MOVQ cols+16(FP), AX
	SUBQ R15, AX
	SHLQ $5, AX
	TILEBASES

pg8row:
	CMPQ   R11, R14
	JGE    pg8next
	GRADROW
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	GRADHEAD
	TESTQ  CX, CX
	JZ     pg8diag

pg8lo:
	VMOVUPS (AX), Y8
	GRAD8(Y8)
	ADDQ    $32, AX
	ADDQ    R10, BX
	DECQ    CX
	JNZ     pg8lo

pg8diag:
	GRAD8(Y15)
	GRADUPPER
	JZ pg8st

pg8hi:
	VMOVUPS (AX), Y8
	GRAD8(Y8)
	ADDQ    DX, AX
	ADDQ    $32, DX
	ADDQ    R10, BX
	DECQ    CX
	JNZ     pg8hi

pg8st:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	GRADROWEND
	JMP     pg8row

pg8next:
	SUBQ $8, R15
	JMP  pg8

pg1:
	TESTQ R15, R15
	JZ    pgdone
	MOVQ  s+24(FP), R8
	MOVQ  z+32(FP), R13
	MOVQ  dz+40(FP), R12
	MOVQ  cols+16(FP), AX
	SUBQ  R15, AX
	SHLQ  $5, AX
	TILEBASES

pg1row:
	CMPQ   R11, R14
	JGE    pg1next
	GRADROW
	VXORPS Y0, Y0, Y0
	GRADHEAD
	TESTQ  CX, CX
	JZ     pg1diag

pg1lo:
	VMOVUPS (AX), Y8
	GRAD1(Y8)
	ADDQ    $32, AX
	ADDQ    R10, BX
	DECQ    CX
	JNZ     pg1lo

pg1diag:
	GRAD1(Y15)
	GRADUPPER
	JZ pg1st

pg1hi:
	VMOVUPS (AX), Y8
	GRAD1(Y8)
	ADDQ    DX, AX
	ADDQ    $32, DX
	ADDQ    R10, BX
	DECQ    CX
	JNZ     pg1hi

pg1st:
	VMOVUPS Y0, (DI)
	GRADROWEND
	JMP     pg1row

pg1next:
	DECQ R15
	JMP  pg1

pgdone:
	VZEROUPPER
	RET
