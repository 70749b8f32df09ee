// Package tensor provides the dense float32 linear-algebra kernels that the
// rest of the repository builds on. It plays the role that cuBLAS plays in
// the paper: plain GEMM, transposed GEMM variants (on Matrix values and on
// caller-owned flat buffers), and element-wise vector helpers. Where the
// paper issues one cublasGemmBatchedEx call over a pointer list, callers here
// issue one product per owner (per sample, per G₂ slice). All kernels are
// deterministic and goroutine-parallel over rows where profitable.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New to allocate storage.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying. The slice
// length must be exactly rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a subslice (no copy).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// reshape returns a view of m with new dimensions sharing the same data.
// rows*cols must equal the current element count.
func (m *Matrix) reshape(rows, cols int) *Matrix {
	if rows*cols != m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: reshape %dx%d -> %dx%d changes element count", m.Rows, m.Cols, rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: m.Data}
}

// transpose returns a newly allocated transpose of m.
func (m *Matrix) transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// equal reports whether m and other have the same shape and all elements
// within tol of each other.
func (m *Matrix) equal(other *Matrix, tol float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between m
// and other, panicking on shape mismatch.
func (m *Matrix) MaxAbsDiff(other *Matrix) float32 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float32
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// frobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) frobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MatMul computes dst = a · b. dst must be preallocated with shape
// a.Rows × b.Cols and must not alias a or b. Rows of dst are computed in
// parallel when the problem is large enough.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	if Parallel(a.Rows * k * n) {
		splitRows(a.Rows, k, n, a.Data, b.Data, dst.Data, false)
		return
	}
	gemmBlocked(a.Rows, k, n, a.Data, b.Data, dst.Data, false)
}

// MatMulTransAAdd computes dst += aᵀ · b.
func MatMulTransAAdd(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransAAdd inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAAdd dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	gemmTransABlocked(a.Cols, a.Rows, b.Cols, a.Data, b.Data, dst.Data, 1, true)
}

// MatMulTransB computes dst = a · bᵀ where b is stored untransposed.
// dst shape must be a.Rows × b.Rows.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	k, n := a.Cols, b.Rows
	if Parallel(a.Rows * k * n) {
		splitRows(a.Rows, k, n, a.Data, b.Data, dst.Data, true)
		return
	}
	gemmTransBBlocked(a.Rows, k, n, a.Data, b.Data, dst.Data, false)
}

// rowSplit is one MatMul/MatMulTransB row split: c = a·b (or a·bᵀ) with a
// m×k and c m×n, each chunk of rows one product. Splits are recycled like
// ParallelFor's job headers, so a split allocates nothing once warm.
type rowSplit struct {
	a, b, c []float32
	k, n    int
	transB  bool
}

// freeSplits holds the released splits. One is out per MatMul/MatMulTransB
// in flight, so per training or serving goroutine; as with freeJobs, 64 is
// more than that, and a split released into a full list is left to the
// collector.
var freeSplits = newFreeList[rowSplit](64)

// splitRows runs the product over the worker pool, one row chunk each.
func splitRows(m, k, n int, a, b, c []float32, transB bool) {
	s := freeSplits.get()
	*s = rowSplit{a: a, b: b, c: c, k: k, n: n, transB: transB}
	ParallelFor(m, s, productRows)
	*s = rowSplit{}
	freeSplits.put(s)
}

// productRows computes rows [lo,hi) of a rowSplit's product.
func productRows(ctx any, lo, hi int) {
	s := ctx.(*rowSplit)
	a, c := s.a[lo*s.k:], s.c[lo*s.n:]
	if s.transB {
		gemmTransBBlocked(hi-lo, s.k, s.n, a, s.b, c, false)
	} else {
		gemmBlocked(hi-lo, s.k, s.n, a, s.b, c, false)
	}
}

// axpy computes y += a*x over equal-length, non-empty slices.
func axpy(a float32, x, y []float32) {
	if useAVX2 {
		axpyAsm(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// axpyGo is axpy's portable kernel; gemmRowsGo's add epilogue writes the same
// expression.
func axpyGo(a float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, xv := range x {
		y[i] += a * xv
	}
}

// dotGo returns the inner product of equal-length, non-empty slices, summed
// in ascending order: the column tail of the portable NT kernel.
func dotGo(x, y []float32) float32 {
	var s float32
	_ = y[len(x)-1]
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Axpy computes y += a*x for vectors exposed as slices.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return
	}
	axpy(a, x, y)
}

// Scale multiplies every element of x by a in place.
func Scale(a float32, x []float32) {
	for i := range x {
		x[i] *= a
	}
}

// AddTo computes dst += src element-wise.
func AddTo(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddTo length mismatch %d != %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	if useAVX2 {
		addToAsm(dst, src)
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// AddBias adds bias to every row of y in place and, with relu set, clamps the
// sum at zero: y[i][j] = max(y[i][j]+bias[j], 0), the epilogue of an nn linear
// layer's forward product. The clamp is the comparison v > 0 ? v : 0, so a
// NaN sum and −0 both become +0. Like ReLUGrad it is exact: the assembly and
// the portable loop give the same bits.
func AddBias(y *Matrix, bias []float32, relu bool) {
	if len(bias) != y.Cols {
		panic(fmt.Sprintf("tensor: AddBias bias length %d != %d columns", len(bias), y.Cols))
	}
	if len(y.Data) == 0 {
		return
	}
	if useAVX2 {
		addBiasAsm(y.Data, bias, y.Rows, y.Cols, relu)
		return
	}
	addBiasGo(y.Data, bias, relu)
}

// ReLUGrad is the backward epilogue of a clamped nn linear layer, whose output
// y = max(·, 0) is its own mask: it zeroes dy in place wherever y > 0 does
// not hold and adds the masked rows to db, in ascending row order (the sums
// a per-row AddTo(db, row) makes).
func ReLUGrad(dy, y *Matrix, db []float32) {
	if dy.Rows != y.Rows || dy.Cols != y.Cols || len(db) != y.Cols {
		panic(fmt.Sprintf("tensor: ReLUGrad dy %dx%d, y %dx%d, db %d", dy.Rows, dy.Cols, y.Rows, y.Cols, len(db)))
	}
	if len(y.Data) == 0 {
		return
	}
	if useAVX2 {
		reluGradAsm(dy.Data, y.Data, db, y.Rows, y.Cols)
		return
	}
	reluGradGo(dy.Data, y.Data, db)
}

// positiveMask returns all ones when the float32 with these bits is > 0
// (0x00000001 … 0x7F800000: denormals up to +Inf) and zero for ±0, negatives
// and NaNs, without a branch: bits−1 wraps zero out of the range, and the
// 64-bit subtraction borrows into the sign exactly below the range's end.
func positiveMask(bits uint32) uint32 {
	return uint32(int64(uint64(bits-1)-0x7F800000) >> 63)
}

// addBiasGo is AddBias's portable kernel over a non-empty y of len(bias)
// columns. keep widens the mask to everything when there is no clamp.
func addBiasGo(y, bias []float32, relu bool) {
	keep := ^uint32(0)
	if relu {
		keep = 0
	}
	for cols := len(bias); len(y) >= cols; y = y[cols:] {
		row := y[:len(bias)]
		for j, b := range bias {
			v := math.Float32bits(row[j] + b)
			row[j] = math.Float32frombits(v & (positiveMask(v) | keep))
		}
	}
}

// reluGradGo is ReLUGrad's portable kernel over non-empty dy and y of
// len(db) columns.
func reluGradGo(dy, y, db []float32) {
	for cols := len(db); len(dy) >= cols; dy, y = dy[cols:], y[cols:] {
		g, out := dy[:len(db)], y[:len(db)]
		for j := range db {
			v := math.Float32frombits(math.Float32bits(g[j]) & positiveMask(math.Float32bits(out[j])))
			g[j] = v
			db[j] += v
		}
	}
}
