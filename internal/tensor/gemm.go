package tensor

// This file holds the three GEMM entry points every matrix product in the
// repository funnels through, and the portable Go kernels behind them. On
// amd64 hosts with AVX2 and FMA each entry point hands the whole product to
// the assembly in gemm_amd64.s; the Go kernels below run everywhere else
// (other architectures, older CPUs, the purego build tag) and are the
// tests' oracle for the assembly.
//
// Both families keep one rule: an output element's bits depend on its A row,
// its B column and k, never on m or on where the row sits in the call.
// ParallelFor row splits and in-batch dedup change only m, and every
// bit-exact equivalence in the repository rests on that. Results are
// deterministic run-to-run within one kernel family; the two families round
// differently (the assembly fuses each multiply-add, the Go kernels round as
// the compiler emits them), see DESIGN.md §12.

// KernelName names the kernel family this process runs: "avx512" or "avx2"
// for the assembly (the widest tier the CPU supports; both give the same
// bits), "portable" for the Go kernels.
func KernelName() string {
	if useAVX512 {
		return "avx512"
	}
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// zeroDims handles the degenerate products shared by every kernel family:
// nothing to write when m or n is 0, and an empty sum (c = 0 unless
// accumulating) when k is 0. It reports whether the caller is done.
func zeroDims(m, k, n int, c []float32, add bool) bool {
	if m == 0 || n == 0 {
		return true
	}
	if k == 0 {
		if !add {
			clear(c[:m*n])
		}
		return true
	}
	return false
}

// gemmBlocked computes c = a·b (add=false) or c += a·b (add=true) for
// row-major buffers: a is m×k, b is k×n, c is m×n. Buffers may be longer
// than required; c must not alias a or b.
func gemmBlocked(m, k, n int, a, b, c []float32, add bool) {
	if zeroDims(m, k, n, c, add) {
		return
	}
	if useAVX2 {
		gemmNNAsm(m, k, n, a, b, c, add)
		return
	}
	gemmRowsGo(m, k, n, a, k, 1, b, c, 1, add)
}

// gemmTransABlocked computes c = aᵀ·b (add=false) or c = alpha·aᵀ·b + c
// (add=true) where a is k×m row-major (so aᵀ is m×k), b is k×n and c is m×n.
func gemmTransABlocked(m, k, n int, a, b, c []float32, alpha float32, add bool) {
	if zeroDims(m, k, n, c, add) {
		return
	}
	if useAVX2 {
		gemmTNAsm(m, k, n, a, b, c, alpha, add)
		return
	}
	gemmRowsGo(m, k, n, a, 1, m, b, c, alpha, add)
}

// gemmTransBBlocked computes c = a·bᵀ (add=false) or c += a·bᵀ (add=true)
// where a is m×k, b is n×k row-major (bᵀ is k×n) and c is m×n.
func gemmTransBBlocked(m, k, n int, a, b, c []float32, add bool) {
	if zeroDims(m, k, n, c, add) {
		return
	}
	if useAVX2 {
		gemmNTAsm(m, k, n, a, b, c, add)
		return
	}
	gemmDotGo(m, k, n, a, b, c, add)
}

// gemmRowsGo is the portable NN and TN kernel for m, k, n ≥ 1: c = A·b, or
// c = alpha·A·b + c with add set, where A's element (i, kk) is
// a[i*aRow+kk*aK] (NN: aRow=k, aK=1; TN: aRow=1, aK=m). Like the NT kernel
// below it is a 2×4 tile of dot products, eight accumulators that stay in
// registers over the whole k loop, each summed in ascending k and then
// scaled into c as axpyGo would; B is read four floats to a row, so nothing
// is packed or transposed. Store mode is zero-then-accumulate at alpha = 1.
func gemmRowsGo(m, k, n int, a []float32, aRow, aK int, b, c []float32, alpha float32, add bool) {
	if !add {
		clear(c[:m*n])
		alpha = 1
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[(i+0)*aRow:]
		a1 := a[(i+1)*aRow:]
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for kk := 0; kk < k; kk++ {
				av0, av1 := a0[kk*aK], a1[kk*aK]
				bv := b[kk*n+j : kk*n+j+4 : kk*n+j+4]
				s00 += av0 * bv[0]
				s01 += av0 * bv[1]
				s02 += av0 * bv[2]
				s03 += av0 * bv[3]
				s10 += av1 * bv[0]
				s11 += av1 * bv[1]
				s12 += av1 * bv[2]
				s13 += av1 * bv[3]
			}
			c0[j+0] += alpha * s00
			c0[j+1] += alpha * s01
			c0[j+2] += alpha * s02
			c0[j+3] += alpha * s03
			c1[j+0] += alpha * s10
			c1[j+1] += alpha * s11
			c1[j+2] += alpha * s12
			c1[j+3] += alpha * s13
		}
		for ; j < n; j++ {
			var s0, s1 float32
			for kk := 0; kk < k; kk++ {
				bv := b[kk*n+j]
				s0 += a0[kk*aK] * bv
				s1 += a1[kk*aK] * bv
			}
			c0[j] += alpha * s0
			c1[j] += alpha * s1
		}
	}
	for ; i < m; i++ {
		a0 := a[i*aRow:]
		c0 := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float32
			for kk := 0; kk < k; kk++ {
				av := a0[kk*aK]
				bv := b[kk*n+j : kk*n+j+4 : kk*n+j+4]
				s0 += av * bv[0]
				s1 += av * bv[1]
				s2 += av * bv[2]
				s3 += av * bv[3]
			}
			c0[j+0] += alpha * s0
			c0[j+1] += alpha * s1
			c0[j+2] += alpha * s2
			c0[j+3] += alpha * s3
		}
		for ; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a0[kk*aK] * b[kk*n+j]
			}
			c0[j] += alpha * s
		}
	}
}

// gemmDotGo is the portable NT kernel for m, k, n ≥ 1. Both
// operand rows are contiguous, so it is a 2×4 tile of simultaneous dot
// products: two A rows against four B rows, eight independent accumulators,
// each summed in ascending k and then added to c.
func gemmDotGo(m, k, n int, a, b, c []float32, add bool) {
	if !add {
		clear(c[:m*n])
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for kk, av0 := range a0 {
				av1 := a1[kk]
				bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			c0[j+0] += s00
			c0[j+1] += s01
			c0[j+2] += s02
			c0[j+3] += s03
			c1[j+0] += s10
			c1[j+1] += s11
			c1[j+2] += s12
			c1[j+3] += s13
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			c0[j] += dotGo(a0, brow)
			c1[j] += dotGo(a1, brow)
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : i*k+k]
		c0 := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			c0[j+0] += s0
			c0[j+1] += s1
			c0[j+2] += s2
			c0[j+3] += s3
		}
		for ; j < n; j++ {
			c0[j] += dotGo(arow, b[j*k:j*k+k])
		}
	}
}
