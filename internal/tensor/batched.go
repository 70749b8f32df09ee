package tensor

import "fmt"

// GemmBatch describes one entry of a batched GEMM call: C = A·B with the
// shared dimensions of the batch. The slices alias caller storage, exactly
// like the device pointers passed to cublasGemmBatchedEx — Algorithm 1 in the
// paper prepares precisely these pointer lists.
type GemmBatch struct {
	A, B, C []float32
}

// BatchedMatMul computes C_i = A_i · B_i for every entry, where every A_i is
// m×k, every B_i is k×n and every C_i is m×n, all row-major. It mirrors
// cublasGemmBatchedEx: one shape, many pointer triples. Entries are processed
// in parallel. C entries must not alias each other.
func BatchedMatMul(m, k, n int, batch []GemmBatch) {
	if m < 0 || k < 0 || n < 0 {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic(fmt.Sprintf("tensor: BatchedMatMul negative dims %d,%d,%d", m, k, n))
	}
	for idx, e := range batch {
		if len(e.A) < m*k || len(e.B) < k*n || len(e.C) < m*n {
			//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
			panic(fmt.Sprintf("tensor: BatchedMatMul entry %d buffers too small for %dx%dx%d", idx, m, k, n))
		}
	}
	// The closure only exists on the parallel branch so the serial hot path
	// (single worker, or small batches) stays allocation-free.
	if len(batch) > 1 && Parallel(len(batch)*m*k*n) {
		ParallelFor(len(batch), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				gemmInto(m, k, n, batch[i].A, batch[i].B, batch[i].C)
			}
		})
		return
	}
	for i := range batch {
		gemmInto(m, k, n, batch[i].A, batch[i].B, batch[i].C)
	}
}

// BatchedMatMulTransA computes C_i = A_iᵀ · B_i for every entry, where every
// A_i is k×m (so A_iᵀ is m×k), every B_i is k×n and every C_i is m×n. Used by
// the Eff-TT backward pass to form core gradients in bulk.
func BatchedMatMulTransA(m, k, n int, batch []GemmBatch) {
	if m < 0 || k < 0 || n < 0 {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic(fmt.Sprintf("tensor: BatchedMatMulTransA negative dims %d,%d,%d", m, k, n))
	}
	for idx, e := range batch {
		if len(e.A) < k*m || len(e.B) < k*n || len(e.C) < m*n {
			//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
			panic(fmt.Sprintf("tensor: BatchedMatMulTransA entry %d buffers too small", idx))
		}
	}
	if len(batch) > 1 && Parallel(len(batch)*m*k*n) {
		ParallelFor(len(batch), func(lo, hi int) {
			batchedTransARange(m, k, n, batch[lo:hi])
		})
		return
	}
	batchedTransARange(m, k, n, batch)
}

func batchedTransARange(m, k, n int, batch []GemmBatch) {
	for i := range batch {
		gemmTransABlocked(m, k, n, batch[i].A, batch[i].B, batch[i].C, false)
	}
}

// gemmInto computes c = a·b for row-major buffers with explicit dimensions,
// zeroing c first.
func gemmInto(m, k, n int, a, b, c []float32) {
	gemmBlocked(m, k, n, a, b, c, false)
}

// GemmInto exposes the raw-buffer GEMM (c = a·b, shapes m×k · k×n) for
// callers that manage their own flat storage.
func GemmInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic("tensor: GemmInto buffers too small")
	}
	gemmInto(m, k, n, a, b, c)
}

// GemmAddInto computes c += a·b for row-major buffers.
func GemmAddInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic("tensor: GemmAddInto buffers too small")
	}
	gemmBlocked(m, k, n, a, b, c, true)
}

// GemmTransAInto computes c = aᵀ·b where a is k×m row-major (aᵀ is m×k), b is
// k×n and c is m×n; every element of c is overwritten.
func GemmTransAInto(m, k, n int, a, b, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic("tensor: GemmTransAInto buffers too small")
	}
	gemmTransABlocked(m, k, n, a, b, c, false)
}

// GemmTransAAddInto computes c += aᵀ·b, shapes as GemmTransAInto.
func GemmTransAAddInto(m, k, n int, a, b, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic("tensor: GemmTransAAddInto buffers too small")
	}
	gemmTransABlocked(m, k, n, a, b, c, true)
}

// GemmTransBInto computes c = a·bᵀ where a is m×k, b is n×k row-major (bᵀ is
// k×n) and c is m×n; every element of c is overwritten. a and b may be the
// same buffer (a Gram matrix).
func GemmTransBInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic("tensor: GemmTransBInto buffers too small")
	}
	gemmTransBBlocked(m, k, n, a, b, c, false)
}

// GemmTransBAddInto computes c += a·bᵀ, shapes as GemmTransBInto.
func GemmTransBAddInto(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		//elrec:invariant batched-GEMM buffer contract: pointer lists are built by the TT kernels
		panic("tensor: GemmTransBAddInto buffers too small")
	}
	gemmTransBBlocked(m, k, n, a, b, c, true)
}
