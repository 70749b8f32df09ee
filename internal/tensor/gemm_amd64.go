//go:build amd64 && !purego

package tensor

// useAVX2 reports whether the CPU and the OS support the gemm_amd64.s
// kernels. It is detected once, before any kernel runs, and never changes:
// on a host where it is true every product, whatever its shape, takes the
// assembly.
var useAVX2 = detectAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 checks AVX, FMA and AVX2 in CPUID and, through XGETBV, that
// the OS saves the YMM state across context switches.
func detectAVX2() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.7.0:EBX
		ymmXCR0 = 0b110  // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXCR0 != ymmXCR0 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// gemmRowsAVX2 computes C (+)= A·B for m, k, n ≥ 1, where A's element (i, kk)
// is a[i*aRow+kk*aK] and C is row-major with row stride ldc (in elements).
// B is k×n row-major with row stride ldb or, with bTrans set (k ≤ 8 only,
// ldb unused), n×k dense. It reads and writes exactly the elements that
// names.
//
//go:noescape
func gemmRowsAVX2(m, k, n int, a *float32, aRow, aK int, b *float32, ldb int, c *float32, ldc int, add, bTrans bool)

// gemmDotAVX2 computes C (+)= A·Bᵀ for m, k, n ≥ 1 with A m×k, B n×k and C
// m×n dense row-major.
//
//go:noescape
func gemmDotAVX2(m, k, n int, a, b, c *float32, add bool)

//go:noescape
func axpyAVX2(alpha float32, x, y *float32, n int)

//go:noescape
func addToAVX2(dst, src *float32, n int)

// addBiasAVX2 and reluGradAVX2 work on dense rows×cols blocks, rows, cols ≥ 1.
//
//go:noescape
func addBiasAVX2(y, bias *float32, rows, cols int, relu bool)

//go:noescape
func reluGradAVX2(dy, y, db *float32, rows, cols int)

// The slice-taking wrappers below are what the dispatchers in gemm.go and
// tensor.go call. Each asserts the extent the assembly will touch (so a short
// buffer panics here instead of faulting there) and needs m, k, n ≥ 1.

func gemmNNAsm(m, k, n int, a, b, c []float32, add bool) {
	_, _, _ = a[m*k-1], b[k*n-1], c[m*n-1]
	gemmRowsAVX2(m, k, n, &a[0], k, 1, &b[0], n, &c[0], n, add, false)
}

func gemmTNAsm(m, k, n int, a, b, c []float32, add bool) {
	_, _, _ = a[k*m-1], b[k*n-1], c[m*n-1]
	gemmRowsAVX2(m, k, n, &a[0], 1, m, &b[0], n, &c[0], n, add, false)
}

// ntDotMinK is the shortest B row the dot kernel takes. Below it a k-long
// dot fills less than one vector and the per-output reduction dominates, so
// the row-broadcast kernel runs instead, gathering B sixteen rows at a time
// into its k×16 stack tile (which holds k ≤ 8). The choice reads k alone.
const ntDotMinK = 8

func gemmNTAsm(m, k, n int, a, b, c []float32, add bool) {
	_, _, _ = a[m*k-1], b[n*k-1], c[m*n-1]
	if k >= ntDotMinK {
		gemmDotAVX2(m, k, n, &a[0], &b[0], &c[0], add)
		return
	}
	gemmRowsAVX2(m, k, n, &a[0], k, 1, &b[0], 0, &c[0], n, add, true)
}

func axpyAsm(alpha float32, x, y []float32) {
	_ = y[len(x)-1]
	axpyAVX2(alpha, &x[0], &y[0], len(x))
}

func addToAsm(dst, src []float32) {
	_ = dst[len(src)-1]
	addToAVX2(&dst[0], &src[0], len(src))
}

func addBiasAsm(y, bias []float32, rows, cols int, relu bool) {
	_, _ = y[rows*cols-1], bias[cols-1]
	addBiasAVX2(&y[0], &bias[0], rows, cols, relu)
}

func reluGradAsm(dy, y, db []float32, rows, cols int) {
	_, _, _ = dy[rows*cols-1], y[rows*cols-1], db[cols-1]
	reluGradAVX2(&dy[0], &y[0], &db[0], rows, cols)
}
