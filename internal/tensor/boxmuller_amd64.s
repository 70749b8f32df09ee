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
CONST(sign, 0x8000000000000000)
CONST(mix1, 0xbf58476d1ce4e5b9)
CONST(mix2, 0x94d049bb133111eb)
CONST(twopi53, 0x3cc921fb54442d18) // float64(2*math.Pi)·2⁻⁵³, exact
CONST(c52, 0x404a000000000000)     // 52.0
CONST(step32, 0xc6ef372fe94f82a0) // 32γ: sixteen pairs' draws

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

// The 512-bit tier fuses the draws into the transform (normalAVX512): eight
// lanes a group, two groups per iteration, group g the pairs 8g … 8g+7 of
// the sixteen. Each group's logarithm and cosine are independent chains,
// and the loop interleaves all four. Per group, log side:
//   L k, then ln u1, the radius and the result    F f
//   S s        Q s², then R        P s⁴        A polynomial accumulator
//   H u1's bits, then hfsq         T scratch    KF f1 ≤ √2/2
// cosine side:
//   X x, then z    J j, then zz    Y y, then scratch
//   C polynomial accumulator       D the cosine, then the result's factor
//   KS sine lanes (j ∈ {2, 6})    KN negated lanes ((j+2)&4 set)
// Group 0 is Z0-Z12 and K1-K3, group 1 Z13-Z25 and K4-K6. Shared: Z26 the
// stream state of this iteration, Z27 the smallest u1 bits seen, Z28 1.0,
// Z29 0.5, Y31 std; every other constant is a {1to8} broadcast operand.
// The exact steps (frexp, trunc, the integer ↔ float conversions) take
// AVX-512's own exact instructions; every rounded one is the scalar code's.

// DRAW sets U to Mix64(c) >> 11, Float64's 53 bits, for the counters c =
// state + lanes (off(SI), eight of them), with T scratch.
#define DRAW(off, U, T) \
	VPADDQ off(SI), Z26, U; \
	VPSRLQ $30, U, T; \
	VPXORQ T, U, U; \
	VPMULLQ.BCST mix1<>(SB), U, U; \
	VPSRLQ $27, U, T; \
	VPXORQ T, U, U; \
	VPMULLQ.BCST mix2<>(SB), U, U; \
	VPSRLQ $31, U, T; \
	VPXORQ T, U, U; \
	VPSRLQ $11, U, U

// ANGLE turns u2's bits m into x = 2π·(m·2⁻⁵³) as the one product
// m·(2π·2⁻⁵³): exact scalings of the same real, so they round alike.
#define ANGLE(X) \
	VCVTQQ2PD X, X; \
	VMULPD.BCST twopi53<>(SB), X, X

// FREXP: L = k and F = f1 − 1 of frexp(u1), u1 = m·2⁻⁵³ for u1's bits m in
// U, after archLog's f1 ≤ √2/2 step under mask KF. f1 is m's mantissa in
// [½, 1) (VGETMANTPD interval 2) and k = ⌊log₂ m⌋ − 52 (VGETEXPPD), exact;
// so are k − 1 and f1 + f1, as k − 0 and f1·1 are in the other lanes.
#define FREXP(U, L, F, KF) \
	VCVTQQ2PD U, U; \
	VGETMANTPD $2, U, F; \
	VGETEXPPD U, L; \
	VSUBPD.BCST c52<>(SB), L, L; \
	VCMPPD.BCST $2, hsqrt2<>(SB), F, KF; \
	VSUBPD Z28, L, KF, L; \
	VADDPD F, F, KF, F; \
	VSUBPD Z28, F, F

// SFRAC: S = f/(2+f), Q = s², P = s⁴.
#define SFRAC(F, S, Q, P, T) \
	VADDPD.BCST two<>(SB), F, T; \
	VDIVPD T, F, S; \
	VMULPD S, S, Q; \
	VMULPD Q, Q, P

// HORNERB is HORNER with c a broadcast operand.
#define HORNERB(c, X, ACC) \
	VMULPD X, ACC, ACC; \
	VADDPD.BCST c<>(SB), ACC, ACC

// LOGPOLY: Q = R = s²·(L1 + s⁴·(L3 + s⁴·(L5 + s⁴·L7))) + s⁴·(L2 + s⁴·(L4 + s⁴·L6)).
#define LOGPOLY(Q, P, A) \
	VMULPD.BCST l7<>(SB), P, A; \
	VADDPD.BCST l5<>(SB), A, A; \
	HORNERB(l3, P, A); \
	HORNERB(l1, P, A); \
	VMULPD A, Q, Q; \
	VMULPD.BCST l6<>(SB), P, A; \
	VADDPD.BCST l4<>(SB), A, A; \
	HORNERB(l2, P, A); \
	VMULPD A, P, P; \
	VADDPD P, Q, Q

// RADIUS: L = √(−2·ln u1), ln u1 = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
#define RADIUS(L, F, S, Q, H, T) \
	VMULPD Z29, F, H; \
	VMULPD F, H, H; \
	VADDPD H, Q, Q; \
	VMULPD Q, S, S; \
	VMULPD.BCST ln2lo<>(SB), L, T; \
	VADDPD T, S, S; \
	VSUBPD S, H, H; \
	VSUBPD F, H, H; \
	VMULPD.BCST ln2hi<>(SB), L, L; \
	VSUBPD H, L, L; \
	VMULPD.BCST minus2<>(SB), L, L; \
	VSQRTPD L, L

// OCTANT: J = j = uint64(x·4/π) stepped to even and Y = y = float64(j),
// and the masks KS and KN.
#define OCTANT(X, J, Y, KS, KN) \
	VMULPD.BCST fouropi<>(SB), X, J; \
	VCVTTPD2QQ J, J; \
	VPANDQ.BCST qone<>(SB), J, Y; \
	VPADDQ Y, J, J; \
	VCVTQQ2PD J, Y; \
	VPTESTMQ.BCST qtwo<>(SB), J, KS; \
	VPADDQ.BCST qtwo<>(SB), J, J; \
	VPTESTMQ.BCST qfour<>(SB), J, KN

// REDUCE: X = z = ((x − y·PI4A) − y·PI4B) − y·PI4C, J = zz.
#define REDUCE(X, J, Y, D) \
	VMULPD.BCST pi4a<>(SB), Y, D; \
	VSUBPD D, X, X; \
	VMULPD.BCST pi4b<>(SB), Y, D; \
	VSUBPD D, X, X; \
	VMULPD.BCST pi4c<>(SB), Y, D; \
	VSUBPD D, X, X; \
	VMULPD X, X, J

// COSINE: D = 1 − 0.5·zz + zz·zz·((((((c0·zz)+c1)·zz+c2)·zz+c3)·zz+c4)·zz+c5).
#define COSINE(J, Y, C, D) \
	VMULPD.BCST cos0<>(SB), J, C; \
	VADDPD.BCST cos1<>(SB), C, C; \
	HORNERB(cos2, J, C); \
	HORNERB(cos3, J, C); \
	HORNERB(cos4, J, C); \
	HORNERB(cos5, J, C); \
	VMULPD J, J, Y; \
	VMULPD C, Y, Y; \
	VMULPD Z29, J, D; \
	VSUBPD D, Z28, D; \
	VADDPD Y, D, D

// SINE: D = z + z·zz·((((((s0·zz)+s1)·zz+s2)·zz+s3)·zz+s4)·zz+s5) in the
// sine lanes KS; the others keep the cosine.
#define SINE(X, J, Y, C, D, KS) \
	VMULPD.BCST sin0<>(SB), J, C; \
	VADDPD.BCST sin1<>(SB), C, C; \
	HORNERB(sin2, J, C); \
	HORNERB(sin3, J, C); \
	HORNERB(sin4, J, C); \
	HORNERB(sin5, J, C); \
	VMULPD J, X, Y; \
	VMULPD C, Y, Y; \
	VADDPD Y, X, KS, D

// STORE negates under KN and writes float32(radius·D)·std to off(DX); LY is
// L's lower half.
#define STORE(L, LY, D, KN, off) \
	VPXORQ.BCST sign<>(SB), D, KN, D; \
	VMULPD D, L, L; \
	VCVTPD2PS L, LY; \
	VMULPS Y31, LY, LY; \
	VMOVUPS LY, off(DX)

// func normalAVX512(state uint64, lanes *[32]uint64, out *float32, n int, std float32) (zero bool)
// out[i] = float32(boxMuller(u1, u2))·std for the Float64 draws u1 at
// counter state + lanes[16·(i/8)+i%8] and u2 at state + lanes[16·(i/8)+8+i%8],
// i < 16, each counter stepping by 32γ for the next sixteen, i < n, n a
// positive multiple of 16. zero reports whether any u1 drew 0; the values
// are then not normFloat64's, which would have drawn that u1 again.
TEXT ·normalAVX512(SB), NOSPLIT, $0-41
	MOVQ state+0(FP), AX
	MOVQ lanes+8(FP), SI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $4, CX
	VPBROADCASTQ AX, Z26
	VPTERNLOGQ $0xff, Z27, Z27, Z27
	VBROADCASTSD one<>(SB), Z28
	VBROADCASTSD half<>(SB), Z29
	VBROADCASTSS std+32(FP), Y31

normal:
	DRAW(0, Z6, Z7)
	DRAW(128, Z19, Z20)
	DRAW(64, Z8, Z12)
	DRAW(192, Z21, Z25)
	VPMINUQ Z6, Z27, Z27
	VPMINUQ Z19, Z27, Z27
	ANGLE(Z8)
	ANGLE(Z21)
	FREXP(Z6, Z0, Z1, K1)
	FREXP(Z19, Z13, Z14, K4)
	OCTANT(Z8, Z9, Z10, K2, K3)
	OCTANT(Z21, Z22, Z23, K5, K6)
	SFRAC(Z1, Z2, Z3, Z4, Z7)
	SFRAC(Z14, Z15, Z16, Z17, Z20)
	REDUCE(Z8, Z9, Z10, Z12)
	REDUCE(Z21, Z22, Z23, Z25)
	LOGPOLY(Z3, Z4, Z5)
	LOGPOLY(Z16, Z17, Z18)
	COSINE(Z9, Z10, Z11, Z12)
	COSINE(Z22, Z23, Z24, Z25)
	RADIUS(Z0, Z1, Z2, Z3, Z6, Z7)
	RADIUS(Z13, Z14, Z15, Z16, Z19, Z20)
	SINE(Z8, Z9, Z10, Z11, Z12, K2)
	SINE(Z21, Z22, Z23, Z24, Z25, K5)
	STORE(Z0, Y0, Z12, K3, 0)
	STORE(Z13, Y13, Z25, K6, 32)

	VPADDQ.BCST step32<>(SB), Z26, Z26
	ADDQ $64, DX
	DECQ CX
	JNZ normal

	VPTESTNMQ Z27, Z27, K1
	KORTESTB K1, K1
	SETNE AX
	MOVB AX, zero+40(FP)
	VZEROUPPER
	RET
