package tt

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestNewShapeBasic(t *testing.T) {
	s, err := NewShape(1000, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.paddedRows() < 1000 {
		t.Fatalf("padded rows %d < 1000", s.paddedRows())
	}
	prod := s.ColFactors[0] * s.ColFactors[1] * s.ColFactors[2]
	if prod != 16 {
		t.Fatalf("col factors %v product %d", s.ColFactors, prod)
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewShapeErrors(t *testing.T) {
	if _, err := NewShape(0, 16, 8); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if _, err := NewShape(10, 16, 0); err == nil {
		t.Fatal("rank=0 accepted")
	}
	if _, err := NewShape(-5, 16, 4); err == nil {
		t.Fatal("negative rows accepted")
	}
}

func TestNewShapeExplicitValidation(t *testing.T) {
	if _, err := NewShapeExplicit(100, 8, [Dims]int{4, 5, 5}, [Dims]int{2, 2, 2}, 4, 4); err != nil {
		t.Fatalf("valid explicit shape rejected: %v", err)
	}
	if _, err := NewShapeExplicit(101, 8, [Dims]int{4, 5, 5}, [Dims]int{2, 2, 2}, 4, 4); err == nil {
		t.Fatal("row factors below rows accepted")
	}
	if _, err := NewShapeExplicit(100, 8, [Dims]int{4, 5, 5}, [Dims]int{2, 2, 3}, 4, 4); err == nil {
		t.Fatal("col factors not multiplying to dim accepted")
	}
	if _, err := NewShapeExplicit(100, 8, [Dims]int{4, 5, 5}, [Dims]int{2, 2, 2}, 0, 4); err == nil {
		t.Fatal("zero rank accepted")
	}
	if _, err := NewShapeExplicit(100, 8, [Dims]int{4, -5, 5}, [Dims]int{2, 2, 2}, 4, 4); err == nil {
		t.Fatal("negative factor accepted")
	}
}

func TestExactFactors3Balanced(t *testing.T) {
	cases := map[int][Dims]int{
		8:   {2, 2, 2},
		64:  {4, 4, 4},
		128: {4, 4, 8},
	}
	for n, want := range cases {
		got, err := exactFactors3(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("exactFactors3(%d) = %v want %v", n, got, want)
		}
	}
	// Primes fall back to 1×1×p.
	got, err := exactFactors3(7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0]*got[1]*got[2] != 7 {
		t.Fatalf("exactFactors3(7) = %v", got)
	}
}

func TestFactorIndexRoundTrip(t *testing.T) {
	s, _ := NewShape(5000, 8, 4)
	for _, i := range []int{0, 1, 999, 4999, s.paddedRows() - 1} {
		i1, i2, i3 := s.factorIndex(i)
		if i1 < 0 || i1 >= s.RowFactors[0] || i2 < 0 || i2 >= s.RowFactors[1] || i3 < 0 || i3 >= s.RowFactors[2] {
			t.Fatalf("FactorIndex(%d) = (%d,%d,%d) out of range %v", i, i1, i2, i3, s.RowFactors)
		}
		if back := s.joinIndex(i1, i2, i3); back != i {
			t.Fatalf("JoinIndex(FactorIndex(%d)) = %d", i, back)
		}
	}
}

func TestQuickFactorIndexRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		rows := 1 + r.Intn(100000)
		s, err := NewShape(rows, 8, 2)
		if err != nil {
			return false
		}
		i := r.Intn(rows)
		i1, i2, i3 := s.factorIndex(i)
		return s.joinIndex(i1, i2, i3) == i && s.prefix(i) == i/s.RowFactors[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixMatchesFirstTwoFactors(t *testing.T) {
	s, _ := NewShape(1000, 8, 4)
	for i := 0; i < 1000; i += 37 {
		i1, i2, _ := s.factorIndex(i)
		if s.prefix(i) != i1*s.RowFactors[1]+i2 {
			t.Fatalf("Prefix(%d) inconsistent with FactorIndex", i)
		}
	}
}

func TestShapeSizes(t *testing.T) {
	s, err := NewShapeExplicit(1000, 8, [Dims]int{10, 10, 10}, [Dims]int{2, 2, 2}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sz := s.sliceSizes()
	if sz[0] != 2*4 || sz[1] != 4*2*4 || sz[2] != 4*2 {
		t.Fatalf("SliceSizes = %v", sz)
	}
	if s.prefixSize() != 2*2*4 {
		t.Fatalf("PrefixSize = %d", s.prefixSize())
	}
	wantParams := 10*8 + 10*32 + 10*8
	if s.numParams() != wantParams {
		t.Fatalf("NumParams = %d want %d", s.numParams(), wantParams)
	}
	if s.FootprintBytes() != int64(wantParams)*4 {
		t.Fatalf("FootprintBytes = %d", s.FootprintBytes())
	}
	if s.numPrefixes() != 100 {
		t.Fatalf("NumPrefixes = %d", s.numPrefixes())
	}
}

func TestCompressionRatioLargeTable(t *testing.T) {
	// A 1M-row, 128-dim table at rank 32 must compress by orders of
	// magnitude (Table III's regime).
	s, err := NewShape(1_000_000, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.compressionRatio(); r < 100 {
		t.Fatalf("compression ratio %v unexpectedly small", r)
	}
}

func TestShapeString(t *testing.T) {
	s, _ := NewShape(100, 8, 4)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// NewShapeExplicit builds a Shape from explicit factors, validating them.
func NewShapeExplicit(rows, dim int, rowF, colF [Dims]int, r1, r2 int) (Shape, error) {
	prodR, prodC := 1, 1
	for k := 0; k < Dims; k++ {
		if rowF[k] <= 0 || colF[k] <= 0 {
			return Shape{}, fmt.Errorf("tt: non-positive factor in %v / %v", rowF, colF)
		}
		prodR *= rowF[k]
		prodC *= colF[k]
	}
	if prodR < rows {
		return Shape{}, fmt.Errorf("tt: row factors %v product %d < rows %d", rowF, prodR, rows)
	}
	if prodC != dim {
		return Shape{}, fmt.Errorf("tt: col factors %v product %d != dim %d", colF, prodC, dim)
	}
	if r1 <= 0 || r2 <= 0 {
		return Shape{}, fmt.Errorf("tt: invalid ranks %d, %d", r1, r2)
	}
	return Shape{Rows: rows, Dim: dim, RowFactors: rowF, ColFactors: colF, R1: r1, R2: r2}, nil
}
