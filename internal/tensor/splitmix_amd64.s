//go:build amd64 && !purego

#include "textflag.h"

// splitmix64 eight lanes at a time. RNG.Uint64 is Mix64 over a Weyl counter,
// so the draw that leaves the state at s + k·γ is Mix64(s + k·γ): a lane
// holding that counter computes it exactly, whatever the other lanes hold
// (DESIGN.md §12 "Uniform initialisation"). Every step is integer or exact:
// VPMULLQ keeps the low 64 bits of Mix64's products as Go's uint64 multiply
// does, the top bits are at most 53 wide and convert without rounding, and
// ·2⁻²³, −1 and ·2⁻⁵³ are exact on them. The one rounding left is
// FillUniform's ·scale, a plain multiply (no FMA) as in the Go expression.

// γ·k mod 2⁶⁴ for the lanes' first counters; the last entry is the step, 8γ.
#define LANES(name, a, b, c, d, e, f, g, h) \
	DATA name<>+0(SB)/8, $a; DATA name<>+8(SB)/8, $b; DATA name<>+16(SB)/8, $c; DATA name<>+24(SB)/8, $d; \
	DATA name<>+32(SB)/8, $e; DATA name<>+40(SB)/8, $f; DATA name<>+48(SB)/8, $g; DATA name<>+56(SB)/8, $h; \
	GLOBL name<>(SB), RODATA|NOPTR, $64

LANES(lanes8, 0x9e3779b97f4a7c15, 0x3c6ef372fe94f82a, 0xdaa66d2c7ddf743f, 0x78dde6e5fd29f054, 0x1715609f7c746c69, 0xb54cda58fbbee87e, 0x538454127b096493, 0xf1bbcdcbfa53e0a8)

DATA mix1<>+0(SB)/8, $0xbf58476d1ce4e5b9
GLOBL mix1<>(SB), RODATA|NOPTR, $8
DATA mix2<>+0(SB)/8, $0x94d049bb133111eb
GLOBL mix2<>(SB), RODATA|NOPTR, $8
DATA exp23<>+0(SB)/4, $0x34000000 // float32 2⁻²³
GLOBL exp23<>(SB), RODATA|NOPTR, $4
DATA one32<>+0(SB)/4, $0x3f800000
GLOBL one32<>(SB), RODATA|NOPTR, $4

// MIX64 sets D to Mix64's first two rounds of Z, ((Z ^ Z>>30)·m1 ^ ·>>27)·m2,
// with T scratch, m1 in Z2 and m2 in Z3. The third round, D ^ D>>31, leaves
// D's top 31 bits as they are.
#define MIX64(Z, D, T) \
	VPSRLQ $30, Z, T; \
	VPXORQ T, Z, D; \
	VPMULLQ Z2, D, D; \
	VPSRLQ $27, D, T; \
	VPXORQ T, D, D; \
	VPMULLQ Z3, D, D

// func uniformAVX512(state uint64, x *float32, n int, scale float32)
// x[i] = (2·Float32() − 1)·scale for the draws at counters state + (i+1)·γ,
// i < n, n a positive multiple of 8. Float32 keeps Mix64's top 24 bits, which
// the third round does not reach.
TEXT ·uniformAVX512(SB), NOSPLIT, $0-28
	MOVQ state+0(FP), AX
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	VPBROADCASTQ AX, Z0
	VPADDQ lanes8<>(SB), Z0, Z0
	VPBROADCASTQ lanes8<>+56(SB), Z1
	VPBROADCASTQ mix1<>(SB), Z2
	VPBROADCASTQ mix2<>(SB), Z3
	VBROADCASTSS exp23<>(SB), Y4
	VBROADCASTSS one32<>(SB), Y5
	VBROADCASTSS scale+24(FP), Y6

fill:
	MIX64(Z0, Z7, Z8)
	VPSRLQ $40, Z7, Z7
	VCVTQQ2PS Z7, Y7
	VMULPS Y4, Y7, Y7
	VSUBPS Y5, Y7, Y7
	VMULPS Y6, Y7, Y7
	VMOVUPS Y7, (DI)
	VPADDQ Z1, Z0, Z0
	ADDQ $32, DI
	DECQ CX
	JNZ fill
	VZEROUPPER
	RET
