package tensor

import (
	"fmt"
	"math"
	"testing"
)

// gemmKind drives one of the three GEMM layouts through one signature, so
// the property tests below run unchanged over NN, TN and NT and over both
// kernel families: run is the dispatcher every caller in the repository
// reaches (the assembly on an AVX2 host), portable the Go kernel directly.
type gemmKind struct {
	name           string
	transA, transB bool
	run, portable  func(m, k, n int, a, b, c []float32, add bool)
}

// portable wraps a Go kernel (which needs m, k, n ≥ 1) with the
// degenerate-shape handling the dispatchers share.
func portable(kernel func(m, k, n int, a, b, c []float32, add bool)) func(m, k, n int, a, b, c []float32, add bool) {
	return func(m, k, n int, a, b, c []float32, add bool) {
		if !zeroDims(m, k, n, c, add) {
			kernel(m, k, n, a, b, c, add)
		}
	}
}

var gemmKinds = []gemmKind{
	{"NN", false, false, gemmBlocked, portable(func(m, k, n int, a, b, c []float32, add bool) { gemmRowsGo(m, k, n, a, k, 1, b, c, 1, add) })},
	{"TN", true, false, func(m, k, n int, a, b, c []float32, add bool) { gemmTransABlocked(m, k, n, a, b, c, 1, add) },
		portable(func(m, k, n int, a, b, c []float32, add bool) { gemmRowsGo(m, k, n, a, 1, m, b, c, 1, add) })},
	{"NT", false, true, gemmTransBBlocked, portable(gemmDotGo)},
}

// scaledKernel is one kernel whose add mode takes a scale, in one layout:
// c = A·B (add false; alpha unused) or c = alpha·A·B + c (add true), for
// m, k, n ≥ 1 and, when maxK > 0, k ≤ maxK. axpy is the level-1 kernel of
// the same family, whose bits the add epilogue must give.
type scaledKernel struct {
	name string
	maxK int
	run  func(m, k, n int, a, b, c []float32, alpha float32, add bool)
	axpy func(alpha float32, x, y []float32)
}

// scaledKernels are the TN entry point and the portable row-broadcast kernel
// in both its layouts; tier_amd64_test.go adds each assembly tier the host
// runs.
var scaledKernels = []scaledKernel{
	{"TN entry point", 0, func(m, k, n int, a, b, c []float32, alpha float32, add bool) {
		gemmTransABlocked(m, k, n, a, b, c, alpha, add)
	}, axpy},
	{"portable NN", 0, func(m, k, n int, a, b, c []float32, alpha float32, add bool) {
		gemmRowsGo(m, k, n, a, k, 1, b, c, alpha, add)
	}, axpyGo},
	{"portable TN", 0, func(m, k, n int, a, b, c []float32, alpha float32, add bool) {
		gemmRowsGo(m, k, n, a, 1, m, b, c, alpha, add)
	}, axpyGo},
}

// rowsOfA returns logical rows [lo,hi) of A in the kind's own layout: a
// subslice when rows are contiguous, a copy of the columns when A is stored
// transposed (k×m).
func (kd gemmKind) rowsOfA(a []float32, m, k, lo, hi int) []float32 {
	if !kd.transA {
		return a[lo*k : hi*k]
	}
	sub := make([]float32, k*(hi-lo))
	for kk := 0; kk < k; kk++ {
		copy(sub[kk*(hi-lo):(kk+1)*(hi-lo)], a[kk*m+lo:kk*m+hi])
	}
	return sub
}

// unaligned returns n pseudo-random floats in (-1,1) with full mantissas
// (so a changed summation order changes bits), starting at an odd float
// offset of their backing array: every vector load and store in the
// kernels sees a 4-byte-aligned, not 32-byte-aligned, address.
func unaligned(r *RNG, n, offset int) []float32 {
	buf := make([]float32, n+offset)
	r.FillUniform(buf, 1)
	return buf[offset:]
}

func bitsEqual(x, y []float32) bool {
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return len(x) == len(y)
}

// invarianceShapes is the full gemmShapes grid, the stacked callers' shapes
// (stackedShapes) and, around the vector and tile widths further out (31, 33,
// 255, 257), every combination with at least one such dimension (at most one
// of them in the hundreds, which bounds the run under -race) and the rest
// from a short list of tail classes.
func invarianceShapes() [][3]int {
	var out [][3]int
	for _, m := range gemmShapes {
		for _, k := range gemmShapes {
			for _, n := range gemmShapes {
				out = append(out, [3]int{m, k, n})
			}
		}
	}
	// Two products just past parallelThreshold, with odd row counts so the
	// two- and four-way row splits cut through register tiles: the only
	// shapes here that MatMul and MatMulTransB actually fan out.
	out = append(out,
		[3]int{37, 257, parallelThreshold/(37*257) + 1},
		[3]int{131, 129, parallelThreshold/(131*129) + 1})
	out = append(out, stackedShapes()...)
	wide := []int{1, 4, 17, 31, 33, 255, 257}
	for _, m := range wide {
		for _, k := range wide {
			for _, n := range wide {
				hundreds := 0
				for _, d := range []int{m, k, n} {
					if d > 100 {
						hundreds++
					}
				}
				if (m > 17 || k > 17 || n > 17) && hundreds <= 1 {
					out = append(out, [3]int{m, k, n})
				}
			}
		}
	}
	return out
}

// TestGemmElementDependsOnRowColumnAndK is the m-independence rule of
// DESIGN.md §12 as a property: an output element computed inside the full
// product has the same bits when its row is computed alone, inside a row
// block that starts at any offset mod 4 (so it lands in a different
// register tile, or in the row tail), in store or zero-then-accumulate mode,
// and through the exported entry points at 1, 2 and 4 workers (ParallelFor
// row splits and batch splits). It holds for either kernel family on its
// own; both are also checked against the float64 reference.
func TestGemmElementDependsOnRowColumnAndK(t *testing.T) {
	defer SetMaxWorkers(Workers())
	rng := NewRNG(77)
	for _, kd := range gemmKinds {
		for _, s := range invarianceShapes() {
			m, k, n := s[0], s[1], s[2]
			name := fmt.Sprintf("%s %dx%dx%d", kd.name, m, k, n)
			a := unaligned(rng, m*k, 1)
			b := unaligned(rng, k*n, 3)
			full := unaligned(rng, m*n, 1) // stale values store mode must overwrite
			kd.run(m, k, n, a, b, full, false)

			want := refGemm(m, k, n, a, b, kd.transA, kd.transB)
			if d := maxDiff(full, want); d > 1e-3 {
				t.Fatalf("%s: %s kernels differ from reference by %g", name, KernelName(), d)
			}
			got := unaligned(rng, m*n, 1)
			kd.portable(m, k, n, a, b, got, false)
			if d := maxDiff(got, want); d > 1e-3 {
				t.Fatalf("%s: portable kernel differs from reference by %g", name, d)
			}

			clear(got)
			kd.run(m, k, n, a, b, got, true)
			if !bitsEqual(got, full) {
				t.Fatalf("%s: zero-then-accumulate differs from store", name)
			}

			// Row blocks [lo,hi): every single row (sampled on tall
			// operands), and blocks starting at each offset mod 4.
			check := func(lo, hi int) {
				sub := unaligned(rng, (hi-lo)*n, 3)
				kd.run(hi-lo, k, n, kd.rowsOfA(a, m, k, lo, hi), b, sub, false)
				if !bitsEqual(sub, full[lo*n:hi*n]) {
					t.Fatalf("%s: rows [%d,%d) computed alone differ from the full product", name, lo, hi)
				}
			}
			for i := 0; i < m; i++ {
				if m <= 17 || i < 5 || i >= m-5 || i%37 == 0 {
					check(i, i+1)
				}
			}
			for off := 1; off < 4 && off < m; off++ {
				check(off, m)
				check(off, min(m, off+6))
			}

			if kd.transA {
				continue // no TN entry point splits rows; TestStackedProducts has the stacked form
			}
			am := FromSlice(m, k, a[:m*k])
			bm := FromSlice(k, n, b[:k*n])
			if kd.transB {
				bm = FromSlice(n, k, b[:k*n])
			}
			dst := New(m, n)
			for _, workers := range []int{1, 2, 4} {
				SetMaxWorkers(workers)
				fillPattern(dst.Data, 5)
				if kd.transB {
					MatMulTransB(dst, am, bm)
				} else {
					MatMul(dst, am, bm)
				}
				if !bitsEqual(dst.Data, full) {
					t.Fatalf("%s: %d workers differ from the serial product", name, workers)
				}
			}
		}
	}
}

// TestGemmNaNReachesEveryRow: IEEE 0·NaN is NaN, so a NaN in B[kk,j] must
// reach C[i,j] for every row i — including rows (here all of them) whose
// A[i,kk] is exactly 0 — and no other column. The portable kernels used to
// skip a k-step whose A tile was all zero, but only below 16 rows.
func TestGemmNaNReachesEveryRow(t *testing.T) {
	const k, n, kk, j = 6, 11, 2, 7
	nan := float32(math.NaN())
	for _, kd := range gemmKinds {
		for _, m := range []int{1, 3, 4, 15, 16, 17} {
			for family, kernel := range map[string]func(m, k, n int, a, b, c []float32, add bool){KernelName(): kd.run, "portable": kd.portable} {
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				fillSeq(a)
				fillSeq(b)
				for i := 0; i < m; i++ {
					if kd.transA {
						a[kk*m+i] = 0
					} else {
						a[i*k+kk] = 0
					}
				}
				clean := make([]float32, m*n)
				kernel(m, k, n, a, b, clean, false)
				if kd.transB {
					b[j*k+kk] = nan
				} else {
					b[kk*n+j] = nan
				}
				for _, add := range []bool{false, true} {
					c := make([]float32, m*n)
					kernel(m, k, n, a, b, c, add)
					for i := 0; i < m; i++ {
						for col := 0; col < n; col++ {
							v := c[i*n+col]
							if col == j && v == v {
								t.Fatalf("%s %s m=%d add=%v: C[%d,%d] = %v, want NaN", kd.name, family, m, add, i, col, v)
							}
							if col != j && v != clean[i*n+col] {
								t.Fatalf("%s %s m=%d add=%v: C[%d,%d] = %v, want %v", kd.name, family, m, add, i, col, v, clean[i*n+col])
							}
						}
					}
				}
			}
		}
	}
}

// wideTop is the widest n tailShapes reaches: every n mod 32 class past
// one full 32-column strip.
const wideTop = 64

// tailShapes covers every tail class of both assembly tiers: m, k, n in
// 1…17 (the 4/1 and 8/4/1 row tiles, the 16/8/4/1 column strips, every
// k mod 8), and n in 18…wideTop (n mod 32 after a full strip) over every m
// and the k classes that pick a kernel (k < 8 short-k NT, k ≥ 8 dot).
func tailShapes() [][3]int {
	var out [][3]int
	for m := 1; m <= 17; m++ {
		for k := 1; k <= 17; k++ {
			for n := 1; n <= 17; n++ {
				out = append(out, [3]int{m, k, n})
			}
		}
		for _, k := range []int{1, 7, 8, 13} {
			for n := 18; n <= wideTop; n++ {
				out = append(out, [3]int{m, k, n})
			}
		}
	}
	return out
}

// TestKernelsWriteOnlyTheirOutput surrounds every output with canaries:
// for each tail class of every dimension, the kernels must write exactly
// c[:m·n] (axpy/AddTo exactly their vector, AddBias exactly y, ReLUGrad
// exactly dy and db), nothing before or after.
func TestKernelsWriteOnlyTheirOutput(t *testing.T) {
	const canary, pad = float32(-12345.5), 19
	guarded := func(n int) (buf, inner []float32) {
		buf = make([]float32, n+2*pad)
		for i := range buf {
			buf[i] = canary
		}
		return buf, buf[pad : pad+n : pad+n]
	}
	intact := func(buf []float32, n int) bool {
		for i, v := range buf {
			if (i < pad || i >= pad+n) && v != canary {
				return false
			}
		}
		return true
	}
	rng := NewRNG(79)
	for _, s := range append(stackedShapes(), tailShapes()...) {
		m, k, n := s[0], s[1], s[2]
		a, b := unaligned(rng, m*k, 1), unaligned(rng, k*n, 3)
		for _, kd := range gemmKinds {
			for _, add := range []bool{false, true} {
				buf, c := guarded(m * n)
				kd.run(m, k, n, a, b, c, add)
				if !intact(buf, m*n) {
					t.Fatalf("%s %dx%dx%d add=%v wrote outside c[:m*n]", kd.name, m, k, n, add)
				}
			}
		}
		for _, sk := range scaledKernels {
			if sk.maxK == 0 || k <= sk.maxK {
				buf, c := guarded(m * n)
				sk.run(m, k, n, a, b, c, -0.05, true)
				if !intact(buf, m*n) {
					t.Fatalf("%s %dx%dx%d α=-0.05 wrote outside c[:m*n]", sk.name, m, k, n)
				}
			}
		}
	}
	for n := 1; n <= 70; n++ {
		x := unaligned(rng, n, 1)
		buf, y := guarded(n)
		axpy(0.5, x, y)
		AddTo(y, x)
		if !intact(buf, n) {
			t.Fatalf("axpy/AddTo wrote outside y[:%d]", n)
		}
	}
	for rows := 1; rows <= 5; rows++ {
		for cols := 1; cols <= 40; cols++ {
			bias := unaligned(rng, cols, 1)
			biasWas := append([]float32(nil), bias...)
			ybuf, y := guarded(rows * cols)
			dybuf, dy := guarded(rows * cols)
			dbbuf, db := guarded(cols)
			AddBias(FromSlice(rows, cols, y), bias, cols%2 == 0)
			yWas := append([]float32(nil), y...)
			ReLUGrad(FromSlice(rows, cols, dy), FromSlice(rows, cols, y), db)
			if !intact(ybuf, rows*cols) || !intact(dybuf, rows*cols) || !intact(dbbuf, cols) {
				t.Fatalf("AddBias/ReLUGrad %dx%d wrote outside their operands", rows, cols)
			}
			if !bitsEqual(bias, biasWas) || !bitsEqual(y, yWas) {
				t.Fatalf("AddBias/ReLUGrad %dx%d wrote a read-only operand", rows, cols)
			}
		}
	}
}

// TestScaledAddEpilogueMatchesAxpyBitForBit: the row-broadcast kernels' add
// epilogue is one fused multiply-add, so C = α·A·B + C has exactly the bits
// of A·B stored into scratch and then Axpy(α)'d into C — and at α = 1 of
// AddTo — for every invarianceShapes() product, α ∈ {1, −0.05, 3}, on
// unaligned operands, in every scaledKernels entry (each assembly tier the
// host has, called directly, and the portable kernel).
func TestScaledAddEpilogueMatchesAxpyBitForBit(t *testing.T) {
	rng := NewRNG(84)
	for _, s := range invarianceShapes() {
		m, k, n := s[0], s[1], s[2]
		if m == 0 || k == 0 || n == 0 {
			continue
		}
		a, b, c0 := unaligned(rng, m*k, 1), unaligned(rng, k*n, 3), unaligned(rng, m*n, 1)
		for _, sk := range scaledKernels {
			if sk.maxK > 0 && k > sk.maxK {
				continue
			}
			prod := unaligned(rng, m*n, 3)
			sk.run(m, k, n, a, b, prod, 7, false)
			for _, alpha := range []float32{1, -0.05, 3} {
				got := append(make([]float32, 1), c0...)[1:]
				sk.run(m, k, n, a, b, got, alpha, true)
				check := func(oracle string, apply func(want []float32)) {
					want := append(make([]float32, 3), c0...)[3:]
					apply(want)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s %dx%dx%d α=%v: C[%d,%d] is %v, store then %s gives %v",
								sk.name, m, k, n, alpha, i/n, i%n, got[i], oracle, want[i])
						}
					}
				}
				check("Axpy", func(want []float32) { sk.axpy(alpha, prod, want) })
				if alpha == 1 {
					check("AddTo", func(want []float32) { AddTo(want, prod) })
				}
			}
		}
	}
}

// TestLevel1MatchesReference checks axpy and AddTo against float64
// arithmetic over every tail class of the 32/8/4/1 unrolling.
func TestLevel1MatchesReference(t *testing.T) {
	rng := NewRNG(80)
	for n := 1; n <= 100; n++ {
		x, y := unaligned(rng, n, 1), unaligned(rng, n, 3)
		sum := append([]float32(nil), y...)
		Axpy(0.75, x, sum)
		AddTo(sum, x)
		for i := range sum {
			if w := float64(y[i]) + 1.75*float64(x[i]); math.Abs(float64(sum[i])-w) > 1e-5 {
				t.Fatalf("Axpy+AddTo n=%d: element %d got %v want %v", n, i, sum[i], w)
			}
		}
	}
}

// stackedDims and stackedGroups parameterise the products the stacked callers
// issue: one sample's Z·Zᵀ over 27 stacked features of width d (the
// interaction's scoring path) and S·Z of the same shape (what its training
// oracle runs), and tt's per-G₂-slice products over a group of k prefixes at
// n = 4·4·4, R = 64.
var (
	stackedDims   = []int{1, 7, 8, 33, 64}
	stackedGroups = []int{1, 2, 3, 4, 5, 6}
)

// stackedShapes lists those products as m×k×n.
func stackedShapes() [][3]int {
	var out [][3]int
	for _, d := range stackedDims {
		out = append(out, [3]int{27, d, 27}, [3]int{27, 27, d})
	}
	for _, k := range stackedGroups {
		out = append(out, [3]int{4 * k, 64, 256}, [3]int{4 * k, 256, 64}, [3]int{64, 4 * k, 256})
	}
	return out
}

// TestStackedProducts checks, on both kernel families, what the stacked
// callers rely on beyond TestGemmElementDependsOnRowColumnAndK (whose grid
// includes stackedShapes: float64 reference, store ≡ zero-then-add, row
// blocks, all three layouts): Z·Zᵀ with one
// buffer as both operands is symmetric bit for bit on finite input; an NT
// product over fewer B rows or a later block of A rows has the bits of the
// full one (FillVarying's two products against Forward's Gram matrix); a
// product over k stacked A operands has the bits of the k separate products
// (the Eff-TT forward fill and c1); and the TN product whose inner dimension
// runs over the whole stack is the sum of the separate TN products up to
// rounding (dG₂: one fma chain per group).
func TestStackedProducts(t *testing.T) {
	rng := NewRNG(81)
	type kernel = func(m, k, n int, a, b, c []float32, add bool)
	for family, pick := range map[string]func(gemmKind) kernel{
		KernelName(): func(kd gemmKind) kernel { return kd.run },
		"portable":   func(kd gemmKind) kernel { return kd.portable },
	} {
		nn, tn, nt := pick(gemmKinds[0]), pick(gemmKinds[1]), pick(gemmKinds[2])
		const f = 27
		for _, d := range stackedDims {
			z := unaligned(rng, f*d, 1)
			gram := make([]float32, f*f)
			nt(f, d, f, z, z, gram, false)
			if diff := maxDiff(gram, refGemm(f, d, f, z, z, false, true)); diff > 1e-3 {
				t.Fatalf("%s d=%d: Z·Zᵀ differs from reference by %g", family, d, diff)
			}
			for i := 0; i < f; i++ {
				for j := 0; j < i; j++ {
					if math.Float32bits(gram[i*f+j]) != math.Float32bits(gram[j*f+i]) {
						t.Fatalf("%s d=%d: Z·Zᵀ[%d][%d] = %v but [%d][%d] = %v", family, d, i, j, gram[i*f+j], j, i, gram[j*f+i])
					}
				}
			}
			for _, v := range []int{1, 13, f - 1} {
				// Feature v against the lower ones as B, the higher ones as A.
				below := make([]float32, v)
				nt(1, d, v, z[v*d:], z, below, false)
				if !bitsEqual(below, gram[v*f:v*f+v]) {
					t.Fatalf("%s d=%d v=%d: a row against the first v rows differs from the Gram matrix", family, d, v)
				}
				above := make([]float32, f-1-v)
				nt(f-1-v, d, 1, z[(v+1)*d:], z[v*d:], above, false)
				for i := range above {
					if math.Float32bits(above[i]) != math.Float32bits(gram[(v+1+i)*f+v]) {
						t.Fatalf("%s d=%d v=%d: rows above v against row v differ from the Gram matrix", family, d, v)
					}
				}
			}
		}

		const n1, r, cols = 4, 64, 256 // G₁[i₁] n₁×R₁, G₂[i₂] R₁×n₂R₂
		g2 := unaligned(rng, r*cols, 3)
		for _, k := range stackedGroups {
			g1, dP := unaligned(rng, k*n1*r, 1), unaligned(rng, k*n1*cols, 1)
			p12, c1, dG2 := make([]float32, k*n1*cols), make([]float32, k*n1*r), make([]float32, r*cols)
			nn(k*n1, r, cols, g1, g2, p12, false)
			nt(k*n1, cols, r, dP, g2, c1, false)
			tn(r, k*n1, cols, g1, dP, dG2, false)
			one, sum := make([]float32, n1*cols), make([]float32, r*cols)
			for u := 0; u < k; u++ {
				nn(n1, r, cols, g1[u*n1*r:], g2, one, false)
				if !bitsEqual(one, p12[u*n1*cols:(u+1)*n1*cols]) {
					t.Fatalf("%s k=%d: stacked NN product differs from prefix %d alone", family, k, u)
				}
				nt(n1, cols, r, dP[u*n1*cols:], g2, one[:n1*r], false)
				if !bitsEqual(one[:n1*r], c1[u*n1*r:(u+1)*n1*r]) {
					t.Fatalf("%s k=%d: stacked NT product differs from prefix %d alone", family, k, u)
				}
				tn(r, n1, cols, g1[u*n1*r:], dP[u*n1*cols:], sum, true)
			}
			if d := maxDiff(dG2, sum); d > 1e-4 {
				t.Fatalf("%s k=%d: stacked TN product differs from the summed separate ones by %g", family, k, d)
			}
		}
	}
}

// epilogueKind drives the two dense-tower epilogues through slice signatures:
// by family, the exported entry points (the assembly on an AVX2 host) and the
// portable kernels directly. rows, cols ≥ 1.
type epilogueKind struct {
	addBias  func(y, bias []float32, rows, cols int, relu bool)
	reluGrad func(dy, y, db []float32, rows, cols int)
}

var epilogueKinds = map[string]epilogueKind{
	KernelName(): {
		func(y, bias []float32, rows, cols int, relu bool) { AddBias(FromSlice(rows, cols, y), bias, relu) },
		func(dy, y, db []float32, rows, cols int) {
			ReLUGrad(FromSlice(rows, cols, dy), FromSlice(rows, cols, y), db)
		},
	},
	"portable": {
		func(y, bias []float32, rows, cols int, relu bool) { addBiasGo(y, bias, relu) },
		func(dy, y, db []float32, rows, cols int) { reluGradGo(dy, y, db) },
	},
}

// refAddBias and refReLUGrad are the loops the fused kernels replaced: a
// bias add per row and then the branching clamp with its []bool mask, the
// masked copy of dy, and a per-row sum into db.
func refAddBias(y, bias []float32, rows, cols int, relu bool) (mask []bool) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			y[i*cols+j] += bias[j]
		}
	}
	if !relu {
		return nil
	}
	mask = make([]bool, rows*cols)
	for i, v := range y {
		if v > 0 {
			mask[i] = true
		} else {
			y[i] = 0
		}
	}
	return mask
}

func refReLUGrad(dy []float32, mask []bool, db []float32, rows, cols int) {
	for i, m := range mask {
		if !m {
			dy[i] = 0
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			db[j] += dy[i*cols+j]
		}
	}
}

// specials are the values an exact kernel must not treat as ordinary: signed
// zeros, infinities, the largest and smallest normals and denormals of either
// sign, and one NaN (a second payload would make x+y depend on operand order,
// which Go does not fix for the portable kernels).
var specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1.1754942e-38, -1.1754942e-38, // largest denormals
}

// laced returns unaligned random floats with every third element, starting
// at phase, replaced by a special value.
func laced(r *RNG, n, offset, phase int) []float32 {
	x := unaligned(r, n, offset)
	for i := phase % 3; i < n; i += 3 {
		x[i] = specials[(i/3+phase)%len(specials)]
	}
	return x
}

// TestEpiloguesMatchScalarLoops: AddBias (clamped and not) and ReLUGrad give,
// on both kernel families and bit for bit, what the scalar loops they
// replaced give — for every column tail of the 32/8/4/1 strips, zero to five
// rows, unaligned operands, and inputs laced with NaN, −0, ±Inf and
// denormals in every combination of sum, mask and gradient. ReLUGrad is also
// fed masks no forward pass produces (negative and NaN y).
func TestEpiloguesMatchScalarLoops(t *testing.T) {
	rng := NewRNG(82)
	for rows := 0; rows <= 5; rows++ {
		for cols := 0; cols <= 40; cols++ {
			n := rows * cols
			for phase := 0; phase < 7; phase++ {
				relu := phase%2 == 0
				y0, bias := laced(rng, n, 1, phase), laced(rng, cols, 3, phase/2)
				dy0, db0 := laced(rng, n, 3, phase+1), laced(rng, cols, 1, phase)
				wantY := append([]float32(nil), y0...)
				mask := refAddBias(wantY, bias, rows, cols, relu)
				if !relu { // any y at all as the mask
					mask = make([]bool, n)
					for i, v := range wantY {
						mask[i] = v > 0
					}
				}
				wantDy, wantDb := append([]float32(nil), dy0...), append([]float32(nil), db0...)
				refReLUGrad(wantDy, mask, wantDb, rows, cols)

				for family, kd := range epilogueKinds {
					name := fmt.Sprintf("%s %dx%d relu=%v phase %d", family, rows, cols, relu, phase)
					y := append(make([]float32, 1), y0...)[1:]
					dy := append(make([]float32, 3), dy0...)[3:]
					db := append(make([]float32, 1), db0...)[1:]
					if n > 0 {
						kd.addBias(y, bias, rows, cols, relu)
						kd.reluGrad(dy, y, db, rows, cols)
					}
					if !bitsEqual(y, wantY) {
						t.Fatalf("%s: AddBias differs from the scalar loop\n got %v\nwant %v", name, y, wantY)
					}
					if !bitsEqual(dy, wantDy) {
						t.Fatalf("%s: ReLUGrad's masked dy differs from the scalar loop\n got %v\nwant %v", name, dy, wantDy)
					}
					if !bitsEqual(db, wantDb) {
						t.Fatalf("%s: ReLUGrad's db differs from the scalar loop\n got %v\nwant %v", name, db, wantDb)
					}
				}
			}
		}
	}
	// The exported entry points take the empty shapes themselves.
	AddBias(New(0, 3), make([]float32, 3), true)
	AddBias(New(3, 0), nil, true)
	ReLUGrad(New(0, 3), New(0, 3), make([]float32, 3))
	ReLUGrad(New(3, 0), New(3, 0), nil)
}
