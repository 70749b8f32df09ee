package tensor

// GemmInto exposes the raw-buffer GEMM (c = a·b, shapes m×k · k×n) for
// callers that manage their own flat storage.
func GemmInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		//elrec:invariant raw-buffer GEMM contract: callers size their flat storage from the shapes they pass
		panic("tensor: GemmInto buffers too small")
	}
	gemmBlocked(m, k, n, a, b, c, false)
}

// GemmTransAInto computes c = aᵀ·b where a is k×m row-major (aᵀ is m×k), b is
// k×n and c is m×n; every element of c is overwritten.
func GemmTransAInto(m, k, n int, a, b, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		//elrec:invariant raw-buffer GEMM contract: callers size their flat storage from the shapes they pass
		panic("tensor: GemmTransAInto buffers too small")
	}
	gemmTransABlocked(m, k, n, a, b, c, 1, false)
}

// GemmTransAAddInto computes c = alpha·aᵀ·b + c, shapes as GemmTransAInto:
// one fused multiply-add per element of c, so it writes exactly what
// GemmTransAInto into scratch and Axpy(alpha) from there would (what AddTo
// would at alpha = 1). With alpha = −lr it is an SGD step on c.
func GemmTransAAddInto(m, k, n int, alpha float32, a, b, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		//elrec:invariant raw-buffer GEMM contract: callers size their flat storage from the shapes they pass
		panic("tensor: GemmTransAAddInto buffers too small")
	}
	gemmTransABlocked(m, k, n, a, b, c, alpha, true)
}

// GemmTransBInto computes c = a·bᵀ where a is m×k, b is n×k row-major (bᵀ is
// k×n) and c is m×n; every element of c is overwritten. a and b may be the
// same buffer (a Gram matrix).
func GemmTransBInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		//elrec:invariant raw-buffer GEMM contract: callers size their flat storage from the shapes they pass
		panic("tensor: GemmTransBInto buffers too small")
	}
	gemmTransBBlocked(m, k, n, a, b, c, false)
}

// GemmTransBAddInto computes c += a·bᵀ, shapes as GemmTransBInto.
func GemmTransBAddInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		//elrec:invariant raw-buffer GEMM contract: callers size their flat storage from the shapes they pass
		panic("tensor: GemmTransBAddInto buffers too small")
	}
	gemmTransBBlocked(m, k, n, a, b, c, true)
}
