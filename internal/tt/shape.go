// Package tt implements tensor-train (TT) compressed embedding tables: the
// plain TT table of TT-Rec and the paper's Eff-TT table with two-level
// intermediate-result reuse in the forward pass and in-advance gradient
// aggregation plus fused core updates in the backward pass (§III).
//
// A table of M rows and N columns is factorized as M = m₁·m₂·m₃ (rows are
// padded up to the product) and N = n₁·n₂·n₃ (exact), and represented by
// three TT cores. Core k holds one slice per i_k:
//
//	G₁[i₁] : n₁ × R₁
//	G₂[i₂] : R₁ × (n₂·R₂)   (columns ordered (j₂, r₂))
//	G₃[i₃] : R₂ × n₃
//
// so that row(i) = reshape(G₁[i₁]·G₂[i₂], n₁n₂×R₂) · G₃[i₃], flattened in
// (j₁, j₂, j₃) order. The product of the first two cores for a prefix
// (i₁,i₂) — equivalently prefix = i / m₃ — is the reusable intermediate of
// Algorithm 1.
package tt

import (
	"fmt"
	"math"
)

// Dims is the number of TT cores; the paper (like TT-Rec) uses 3.
const Dims = 3

// Shape describes the factorization of an embedding table into TT cores.
type Shape struct {
	Rows int // logical number of embedding rows (M)
	Dim  int // embedding dimension (N)

	RowFactors [Dims]int // m₁, m₂, m₃ with m₁·m₂·m₃ ≥ Rows
	ColFactors [Dims]int // n₁, n₂, n₃ with n₁·n₂·n₃ == Dim
	R1, R2     int       // TT ranks (R₀ = R₃ = 1)
}

// NewShape builds a Shape for a rows×dim table with both TT ranks set to
// rank. Row factors are chosen near the cube root of rows (padding up);
// column factors must divide dim exactly into three balanced factors.
func NewShape(rows, dim, rank int) (Shape, error) {
	return newShapeRanks(rows, dim, rank, rank)
}

// newShapeRanks is NewShape with independent ranks R₁ and R₂.
func newShapeRanks(rows, dim, r1, r2 int) (Shape, error) {
	if rows <= 0 || dim <= 0 {
		return Shape{}, fmt.Errorf("tt: invalid table shape %dx%d", rows, dim)
	}
	if r1 <= 0 || r2 <= 0 {
		return Shape{}, fmt.Errorf("tt: invalid ranks %d, %d", r1, r2)
	}
	colF, err := exactFactors3(dim)
	if err != nil {
		return Shape{}, err
	}
	return Shape{
		Rows:       rows,
		Dim:        dim,
		RowFactors: paddedFactors3(rows),
		ColFactors: colF,
		R1:         r1,
		R2:         r2,
	}, nil
}

// paddedRows returns m₁·m₂·m₃, the row capacity of the TT representation.
func (s Shape) paddedRows() int {
	return s.RowFactors[0] * s.RowFactors[1] * s.RowFactors[2]
}

// factorIndex splits a row index into its TT indices per Equation 3.
func (s Shape) factorIndex(i int) (i1, i2, i3 int) {
	m2, m3 := s.RowFactors[1], s.RowFactors[2]
	return i / (m2 * m3), (i / m3) % m2, i % m3
}

// prefix returns the reuse-buffer key of index i: the combined (i₁,i₂)
// coordinate, i.e. i / m₃ exactly as Algorithm 1 computes Buf_idx.
func (s Shape) prefix(i int) int { return i / s.RowFactors[2] }

// sliceSizes returns the float count of one slice of each core.
func (s Shape) sliceSizes() [Dims]int {
	n := s.ColFactors
	return [Dims]int{
		n[0] * s.R1,
		s.R1 * n[1] * s.R2,
		s.R2 * n[2],
	}
}

// prefixSize returns the float count of one reuse-buffer entry
// (n₁ × n₂·R₂, the product of the first two cores).
func (s Shape) prefixSize() int {
	return s.ColFactors[0] * s.ColFactors[1] * s.R2
}

// numParams returns the total number of trainable floats across the cores.
func (s Shape) numParams() int {
	sz := s.sliceSizes()
	total := 0
	for k := 0; k < Dims; k++ {
		total += s.RowFactors[k] * sz[k]
	}
	return total
}

// FootprintBytes returns the parameter storage size of the TT cores.
func (s Shape) FootprintBytes() int64 { return int64(s.numParams()) * 4 }

// validate reports whether the shape is internally consistent.
func (s Shape) validate() error {
	if s.Rows <= 0 || s.Dim <= 0 || s.R1 <= 0 || s.R2 <= 0 {
		return fmt.Errorf("tt: invalid shape %+v", s)
	}
	if s.paddedRows() < s.Rows {
		return fmt.Errorf("tt: padded rows %d < rows %d", s.paddedRows(), s.Rows)
	}
	prod := s.ColFactors[0] * s.ColFactors[1] * s.ColFactors[2]
	if prod != s.Dim {
		return fmt.Errorf("tt: col factors %v do not multiply to %d", s.ColFactors, s.Dim)
	}
	return nil
}

// String renders the factorization like the paper's notation.
func (s Shape) String() string {
	return fmt.Sprintf("TT[%d(=%dx%dx%d) x %d(=%dx%dx%d), R=(%d,%d)]",
		s.Rows, s.RowFactors[0], s.RowFactors[1], s.RowFactors[2],
		s.Dim, s.ColFactors[0], s.ColFactors[1], s.ColFactors[2], s.R1, s.R2)
}

// paddedFactors3 factorizes n into three near-equal factors whose product is
// at least n (rows may be padded).
func paddedFactors3(n int) [Dims]int {
	c := int(math.Ceil(math.Cbrt(float64(n))))
	if c < 1 {
		c = 1
	}
	m3 := c
	rest := ceilDiv(n, m3)
	m2 := int(math.Ceil(math.Sqrt(float64(rest))))
	if m2 < 1 {
		m2 = 1
	}
	m1 := ceilDiv(rest, m2)
	if m1 < 1 {
		m1 = 1
	}
	return [Dims]int{m1, m2, m3}
}

// exactFactors3 factorizes n into three factors with exact product, as
// balanced as possible, or errors when n has no such factorization
// (e.g. a large prime).
func exactFactors3(n int) ([Dims]int, error) {
	best := [Dims]int{}
	bestSpread := math.MaxInt64
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		rest := n / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if spread := c - a; spread < bestSpread {
				bestSpread = spread
				best = [Dims]int{a, b, c}
			}
		}
	}
	if bestSpread == math.MaxInt64 {
		return best, fmt.Errorf("tt: dim %d has no 3-factor decomposition", n)
	}
	return best, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
