//go:build amd64 && !purego

#include "textflag.h"

// Box–Muller four lanes at a time: out[i] = float32(√(−2·ln u1[i]) ·
// cos(2π·u2[i]))·std, the expression RNG.NormFloat64 and FillNormal evaluate
// one element at a time, with the same bits (DESIGN.md §12). The logarithm is
// math's log_amd64.s and the cosine math.cos (sin.go), operation for
// operation and without FMA: every step is one correctly rounded IEEE
// operation or an exact bit manipulation, so a lane rounds where the scalar
// code rounds. Domain: u1 ∈ [2⁻⁵³, 1) and u2 ∈ [0, 1), the values
// RNG.Float64 draws (u1 ≠ 0 retried by the caller), so archLog's special
// cases and cos's trigReduce branch never apply.
//
// Register plan:
//   SI u1   DI u2   DX out   CX groups of four left
//   Y0 u1, then x = 2π·u2, then z    Y1 k, then ln u1, then the radius
//   Y2 f, then 2⁵² + y               Y3 s, then y
//   Y4 s², then zz                   Y5 s⁴, then the polynomials
//   Y6 polynomial accumulator        Y7 hfsq, then zz·zz·Q
//   Y8 sine-polynomial lanes         Y9 sign bits       X10 std
//   Y13 1.0   Y14 0.5   Y15 constant scratch

// Constants, one float64 (or int64 lane value) each.
#define CONST(name, bits) DATA name<>+0(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $8

CONST(one, 0x3ff0000000000000)
CONST(half, 0x3fe0000000000000)
CONST(two, 0x4000000000000000)
CONST(minus2, 0xc000000000000000)
CONST(two52, 0x4330000000000000)  // 2⁵²: y + 2⁵² holds the integer y in its low bits
CONST(kbias, 0x43300000000003fe)  // 2⁵² + 1022: exponent field → frexp's k
CONST(mant, 0x000fffffffffffff)
CONST(hsqrt2, 0x3fe6a09e667f3bcd) // √2/2
CONST(ln2hi, 0x3fe62e42fee00000)
CONST(ln2lo, 0x3dea39ef35793c76)
CONST(l1, 0x3fe5555555555593)
CONST(l2, 0x3fd999999997fa04)
CONST(l3, 0x3fd2492494229359)
CONST(l4, 0x3fcc71c51d8e78af)
CONST(l5, 0x3fc7466496cb03de)
CONST(l6, 0x3fc39a09d078c69f)
CONST(l7, 0x3fc2f112df3e5244)
CONST(twopi, 0x401921fb54442d18)  // float64(2*math.Pi)
CONST(fouropi, 0x3ff45f306dc9c883) // float64(4/math.Pi)
CONST(pi4a, 0x3fe921fb40000000)
CONST(pi4b, 0x3e64442d00000000)
CONST(pi4c, 0x3ce8469898cc5170)
CONST(sin0, 0x3de5d8fd1fd19ccd)
CONST(sin1, 0xbe5ae5e5a9291f5d)
CONST(sin2, 0x3ec71de3567d48a1)
CONST(sin3, 0xbf2a01a019bfdf03)
CONST(sin4, 0x3f8111111110f7d0)
CONST(sin5, 0xbfc5555555555548)
CONST(cos0, 0xbda8fa49a0861a9b)
CONST(cos1, 0x3e21ee9d7b4e3f05)
CONST(cos2, 0xbe927e4f7eac4bc6)
CONST(cos3, 0x3efa01a019c844f5)
CONST(cos4, 0xbf56c16c16c14f91)
CONST(cos5, 0x3fa555555555554b)
CONST(qone, 1)
CONST(qtwo, 2)
CONST(qfour, 4)

// ACC = ACC·X + c, one rounding each: a Horner step.
#define HORNER(c, X, ACC) \
	VMULPD X, ACC, ACC; \
	VBROADCASTSD c<>(SB), Y15; \
	VADDPD Y15, ACC, ACC

// func boxMullerAVX2(u1, u2 *float64, out *float32, n int, std float32)
// n is a positive multiple of 4.
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-36
	MOVQ u1+0(FP), SI
	MOVQ u2+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	VBROADCASTSS std+32(FP), X10
	VBROADCASTSD one<>(SB), Y13
	VBROADCASTSD half<>(SB), Y14

loop:
	// ln u1 (log_amd64.s). f1, k = frexp(u1): k from the exponent field
	// through 2⁵² + e − (2⁵² + 1022), exact.
	VMOVUPD (SI), Y0
	VPSRLQ $52, Y0, Y1
	VBROADCASTSD two52<>(SB), Y15
	VPOR Y15, Y1, Y1
	VBROADCASTSD kbias<>(SB), Y15
	VSUBPD Y15, Y1, Y1
	VBROADCASTSD mant<>(SB), Y15
	VANDPD Y15, Y0, Y2
	VORPD Y14, Y2, Y2

	// if f1 ≤ √2/2 { k -= 1; f1 *= 2 }: archLog's CMPSD …, 5 (not less
	// than) with √2/2 on the left; then f = f1 − 1.
	VBROADCASTSD hsqrt2<>(SB), Y15
	VCMPPD $5, Y2, Y15, Y3
	VANDPD Y13, Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD Y13, Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD Y13, Y2, Y2

	// s = f/(2+f), s2 = s·s, s4 = s2·s2.
	VBROADCASTSD two<>(SB), Y15
	VADDPD Y2, Y15, Y15
	VDIVPD Y15, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))), t2 = s4·(L2 + s4·(L4 +
	// s4·L6)), R = t1 + t2.
	VBROADCASTSD l7<>(SB), Y6
	HORNER(l5, Y5, Y6)
	HORNER(l3, Y5, Y6)
	HORNER(l1, Y5, Y6)
	VMULPD Y6, Y4, Y4
	VBROADCASTSD l6<>(SB), Y6
	HORNER(l4, Y5, Y6)
	HORNER(l2, Y5, Y6)
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq = 0.5·f·f; ln u1 = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
	VMULPD Y14, Y2, Y7
	VMULPD Y2, Y7, Y7
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VBROADCASTSD ln2lo<>(SB), Y15
	VMULPD Y1, Y15, Y15
	VADDPD Y15, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y2, Y7, Y7
	VBROADCASTSD ln2hi<>(SB), Y15
	VMULPD Y15, Y1, Y1
	VSUBPD Y7, Y1, Y1

	// radius = √(−2·ln u1)
	VBROADCASTSD minus2<>(SB), Y15
	VMULPD Y15, Y1, Y1
	VSQRTPD Y1, Y1

	// cos(x), x = 2π·u2 ∈ [0, 2π) (sin.go). y = trunc(x·4/π), held as
	// 2⁵² + y so its low bits are the integer j; an odd j and y step up by
	// one, leaving j ∈ {0, 2, 4, 6} mod 8.
	VMOVUPD (DI), Y0
	VBROADCASTSD twopi<>(SB), Y15
	VMULPD Y15, Y0, Y0
	VBROADCASTSD fouropi<>(SB), Y15
	VMULPD Y15, Y0, Y2
	VROUNDPD $3, Y2, Y2
	VBROADCASTSD two52<>(SB), Y15
	VADDPD Y15, Y2, Y2
	VPBROADCASTQ qone<>(SB), Y3
	VPAND Y3, Y2, Y3
	VPADDQ Y3, Y2, Y2
	VSUBPD Y15, Y2, Y3

	// j ∈ {2, 6} takes the sine polynomial (Y8 all ones); j ∈ {2, 4}
	// negates, (j+2)&4 shifted to the sign bit (Y9).
	VPBROADCASTQ qtwo<>(SB), Y15
	VPAND Y15, Y2, Y8
	VPCMPEQQ Y15, Y8, Y8
	VPADDQ Y15, Y2, Y9
	VPBROADCASTQ qfour<>(SB), Y15
	VPAND Y15, Y9, Y9
	VPSLLQ $61, Y9, Y9

	// z = ((x − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z.
	VBROADCASTSD pi4a<>(SB), Y15
	VMULPD Y15, Y3, Y15
	VSUBPD Y15, Y0, Y0
	VBROADCASTSD pi4b<>(SB), Y15
	VMULPD Y15, Y3, Y15
	VSUBPD Y15, Y0, Y0
	VBROADCASTSD pi4c<>(SB), Y15
	VMULPD Y15, Y3, Y15
	VSUBPD Y15, Y0, Y0
	VMULPD Y0, Y0, Y4

	// sine: z + z·zz·((((((s0·zz)+s1)·zz+s2)·zz+s3)·zz+s4)·zz+s5)
	VBROADCASTSD sin0<>(SB), Y6
	HORNER(sin1, Y4, Y6)
	HORNER(sin2, Y4, Y6)
	HORNER(sin3, Y4, Y6)
	HORNER(sin4, Y4, Y6)
	HORNER(sin5, Y4, Y6)
	VMULPD Y4, Y0, Y5
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y0, Y5

	// cosine: 1 − 0.5·zz + zz·zz·((((((c0·zz)+c1)·zz+c2)·zz+c3)·zz+c4)·zz+c5)
	VBROADCASTSD cos0<>(SB), Y6
	HORNER(cos1, Y4, Y6)
	HORNER(cos2, Y4, Y6)
	HORNER(cos3, Y4, Y6)
	HORNER(cos4, Y4, Y6)
	HORNER(cos5, Y4, Y6)
	VMULPD Y4, Y4, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y14, Y4, Y6
	VSUBPD Y6, Y13, Y6
	VADDPD Y7, Y6, Y6

	// Pick, sign, scale: float32(radius·cos)·std.
	VBLENDVPD Y8, Y5, Y6, Y6
	VXORPD Y9, Y6, Y6
	VMULPD Y6, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMULPS X10, X1, X1
	VMOVUPS X1, (DX)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $16, DX
	DECQ CX
	JNZ loop
	VZEROUPPER
	RET
