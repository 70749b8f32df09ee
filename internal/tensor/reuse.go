package tensor

// Reuse returns an r×c matrix backed by m's storage when it fits, avoiding
// the steady-state allocation of the training hot path; a nil or too-small
// m allocates fresh. Contents are unspecified — callers that need zeroed
// storage must call Zero. The returned matrix aliases m's buffer.
func Reuse(m *Matrix, r, c int) *Matrix {
	if r < 0 || c < 0 {
		//elrec:invariant matrix shape contract: dimensions are validated upstream
		panic("tensor: Reuse with negative shape")
	}
	if m == nil || cap(m.Data) < r*c {
		return New(r, c)
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:r*c]
	return m
}

// ReuseRows is Reuse for an r×c matrix whose row count is bounded by bound
// (a batch's occurrence count bounds every per-batch row set): storage that
// has to grow gets Headroom(r, bound) rows, so a stream of batches stops
// growing it after a few steps instead of chasing every new high-water mark.
func ReuseRows(m *Matrix, r, c, bound int) *Matrix {
	if m == nil || cap(m.Data) < r*c {
		m = New(Headroom(r, bound), c)
	}
	return Reuse(m, r, c)
}

// Headroom is the capacity a per-batch buffer grows to when n elements do
// not fit: n plus a quarter, but never past bound (nor below n).
func Headroom(n, bound int) int { return max(n, min(n+n/4, bound)) }
