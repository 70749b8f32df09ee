package tensor

import (
	"fmt"
	"testing"
)

// gemmShapes are the adversarial dimensions the property tests sweep: zero,
// every tail-length class of the 4/2/1-row and 4-column register tiles,
// powers of two around the tile widths, and sizes crossing the k-panel.
var gemmShapes = []int{0, 1, 2, 3, 5, 7, 8, 9, 16, 17, 64, 100}

// refGemm is the obviously-correct reference: a textbook triple loop over
// logical indices. a holds A as m×k (or k×m when transA), b holds B as k×n
// (or n×k when transB); the result is freshly allocated and m×n.
func refGemm(m, k, n int, a, b []float32, transA, transB bool) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				av := a[i*k+kk]
				if transA {
					av = a[kk*m+i]
				}
				bv := b[kk*n+j]
				if transB {
					bv = b[j*k+kk]
				}
				s += float64(av) * float64(bv)
			}
			c[i*n+j] = float32(s)
		}
	}
	return c
}

// fillPattern fills x with a deterministic, sign-alternating pattern that
// includes exact zeros.
func fillPattern(x []float32, seed int) {
	for i := range x {
		v := float32((i*7+seed*13)%11) - 5
		if (i+seed)%5 == 0 {
			v = 0
		}
		x[i] = v / 4
	}
}

func maxDiff(got, want []float32) float64 {
	var m float64
	for i := range got {
		d := float64(got[i] - want[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// slack pads operand buffers beyond their logical size: the raw-buffer
// kernels promise to ignore trailing capacity.
const slack = 3

func TestGemmBlockedMatchesReference(t *testing.T) {
	for _, m := range gemmShapes {
		for _, k := range gemmShapes {
			for _, n := range gemmShapes {
				a := make([]float32, m*k+slack)
				b := make([]float32, k*n+slack)
				fillPattern(a, 1)
				fillPattern(b, 2)
				want := refGemm(m, k, n, a, b, false, false)

				c := make([]float32, m*n+slack)
				fillPattern(c, 3) // stale garbage the non-add kernel must overwrite
				gemmBlocked(m, k, n, a, b, c, false)
				if d := maxDiff(c[:m*n], want); d > 1e-3 {
					t.Fatalf("gemmBlocked %dx%dx%d: max diff %g", m, k, n, d)
				}

				// Add variant accumulates on top of a non-zero seed.
				seed := make([]float32, m*n+slack)
				fillPattern(seed, 4)
				acc := append([]float32(nil), seed...)
				gemmBlocked(m, k, n, a, b, acc, true)
				for i := range want {
					want[i] += seed[i]
				}
				if d := maxDiff(acc[:m*n], want); d > 1e-3 {
					t.Fatalf("gemmBlocked(add) %dx%dx%d: max diff %g", m, k, n, d)
				}
			}
		}
	}
}

func TestGemmTransABlockedMatchesReference(t *testing.T) {
	for _, m := range gemmShapes {
		for _, k := range gemmShapes {
			for _, n := range gemmShapes {
				a := make([]float32, k*m+slack) // stored k×m
				b := make([]float32, k*n+slack)
				fillPattern(a, 5)
				fillPattern(b, 6)
				want := refGemm(m, k, n, a, b, true, false)

				seed := make([]float32, m*n+slack)
				fillPattern(seed, 7)
				acc := append([]float32(nil), seed...)
				gemmTransABlocked(m, k, n, a, b, acc, 1, true)
				for i := range want {
					want[i] += seed[i]
				}
				if d := maxDiff(acc[:m*n], want); d > 1e-3 {
					t.Fatalf("gemmTransABlocked %dx%dx%d: max diff %g", m, k, n, d)
				}
			}
		}
	}
}

func TestGemmTransBBlockedMatchesReference(t *testing.T) {
	for _, m := range gemmShapes {
		for _, k := range gemmShapes {
			for _, n := range gemmShapes {
				a := make([]float32, m*k+slack)
				b := make([]float32, n*k+slack) // stored n×k
				fillPattern(a, 8)
				fillPattern(b, 9)
				want := refGemm(m, k, n, a, b, false, true)

				c := make([]float32, m*n+slack)
				fillPattern(c, 10)
				gemmTransBBlocked(m, k, n, a, b, c, false)
				if d := maxDiff(c[:m*n], want); d > 1e-3 {
					t.Fatalf("gemmTransBBlocked %dx%dx%d: max diff %g", m, k, n, d)
				}

				seed := make([]float32, m*n+slack)
				fillPattern(seed, 11)
				acc := append([]float32(nil), seed...)
				gemmTransBBlocked(m, k, n, a, b, acc, true)
				for i := range want {
					want[i] += seed[i]
				}
				if d := maxDiff(acc[:m*n], want); d > 1e-3 {
					t.Fatalf("gemmTransBBlocked(add) %dx%dx%d: max diff %g", m, k, n, d)
				}
			}
		}
	}
}

// TestMatrixMatMulFamilyMatchesReference drives the exported Matrix-level
// wrappers (including the parallel large-shape paths) against the reference.
func TestMatrixMatMulFamilyMatchesReference(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {9, 8, 17}, {64, 64, 64}, {100, 37, 51}, {130, 70, 90}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(k, n)
			fillPattern(a.Data, 12)
			fillPattern(b.Data, 13)
			want := refGemm(m, k, n, a.Data, b.Data, false, false)

			dst := New(m, n)
			MatMul(dst, a, b)
			if d := maxDiff(dst.Data, want); d > 1e-3 {
				t.Fatalf("MatMul: max diff %g", d)
			}

			bt := b.Transpose() // n×k storage, logical B
			dst.Zero()
			MatMulTransB(dst, a, bt)
			if d := maxDiff(dst.Data, want); d > 1e-3 {
				t.Fatalf("MatMulTransB: max diff %g", d)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Kernel benchmarks: exercised by the CI bench smoke step so the blocked
// paths stay compiled and measured.
// ---------------------------------------------------------------------------

func benchOperands(m, k, n int) (a, b, c []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	c = make([]float32, m*n)
	fillPattern(a, 21)
	fillPattern(b, 22)
	return
}

func BenchmarkGemmBlocked128(b *testing.B) {
	x, y, z := benchOperands(128, 128, 128)
	b.SetBytes(128 * 128 * 128 * 4)
	for i := 0; i < b.N; i++ {
		gemmBlocked(128, 128, 128, x, y, z, false)
	}
}

func BenchmarkGemmTransABlocked(b *testing.B) {
	x, y, z := benchOperands(128, 128, 128)
	for i := 0; i < b.N; i++ {
		gemmTransABlocked(128, 128, 128, x, y, z, 1, true)
	}
}

func BenchmarkGemmTransBBlocked(b *testing.B) {
	x, y, z := benchOperands(128, 128, 128)
	for i := 0; i < b.N; i++ {
		gemmTransBBlocked(128, 128, 128, x, y, z, false)
	}
}

// BenchmarkGemmTTSlice is the TT-contraction regime: tiny panels where call
// overhead and tail handling dominate.
func BenchmarkGemmTTSlice(b *testing.B) {
	x, y, z := benchOperands(4, 16, 64)
	for i := 0; i < b.N; i++ {
		gemmBlocked(4, 16, 64, x, y, z, false)
	}
}

// BenchmarkGemmShapes times one serial call of each kernel at the shapes the
// repo benchmark's train_tt step is made of (elrec-bench -exp ttcore reports
// the same rows): the TT contractions at dim 64 = 4·4·4, rank 64, and the
// default model's widest layer at batch 128.
func BenchmarkGemmShapes(b *testing.B) {
	for _, s := range []struct {
		kind    string
		m, k, n int
	}{
		{"NN", 4, 64, 256}, {"NN", 16, 64, 4},
		{"TN", 64, 16, 4}, {"TN", 64, 4, 256},
		{"NT", 16, 4, 64}, {"NT", 4, 256, 64},
		{"NT", 128, 415, 64}, {"TN", 64, 128, 415}, {"NN", 128, 64, 415},
	} {
		b.Run(fmt.Sprintf("%s-%dx%dx%d", s.kind, s.m, s.k, s.n), func(b *testing.B) {
			x, y, z := benchOperands(s.m, s.k, s.n)
			for i := 0; i < b.N; i++ {
				switch s.kind {
				case "NN":
					gemmBlocked(s.m, s.k, s.n, x, y, z, false)
				case "TN":
					gemmTransABlocked(s.m, s.k, s.n, x, y, z, 1, true)
				case "NT":
					gemmTransBBlocked(s.m, s.k, s.n, x, y, z, true)
				}
			}
			b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkGemmSplit is the measurement parallelThreshold is set from: a
// 64-row x·Wᵀ (the serving forward) run inline and split over two executors
// the way MatMulTransB splits it, at sizes either side of the crossover.
// Run with -cpu 2 or more; EXPERIMENTS.md "Dispatch threshold" has the table.
func BenchmarkGemmSplit(b *testing.B) {
	defer SetMaxWorkers(Workers())
	const m = 64
	for _, kn := range []int{32, 64, 128, 181, 256, 362, 512, 724} {
		x, y, z := benchOperands(m, kn, kn)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("macs=%d/workers=%d", m*kn*kn, workers), func(b *testing.B) {
				SetMaxWorkers(workers)
				for i := 0; i < b.N; i++ {
					splitRows(m, kn, kn, x, y, z, true)
				}
			})
		}
	}
}
