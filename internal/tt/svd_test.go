package tt

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func reconstruct(u *tensor.Matrix, s []float32, v *tensor.Matrix) *tensor.Matrix {
	us := tensor.New(u.Rows, u.Cols)
	for i := 0; i < u.Rows; i++ {
		for j := 0; j < u.Cols; j++ {
			us.Set(i, j, u.At(i, j)*s[j])
		}
	}
	out := tensor.New(u.Rows, v.Rows)
	tensor.MatMulTransB(out, us, v)
	return out
}

func TestSVDReconstruction(t *testing.T) {
	r := tensor.NewRNG(40)
	a := tensor.New(12, 8)
	r.FillUniform(a.Data, 1)
	u, s, v := SVD(a)
	back := reconstruct(u, s, v)
	if d := back.MaxAbsDiff(a); d > 1e-4 {
		t.Fatalf("SVD reconstruction error %v", d)
	}
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1]+1e-6 {
			t.Fatalf("singular values not descending: %v", s)
		}
		if s[i] < 0 {
			t.Fatalf("negative singular value %v", s[i])
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	r := tensor.NewRNG(41)
	a := tensor.New(10, 6)
	r.FillUniform(a.Data, 1)
	u, _, v := SVD(a)
	utu := tensor.New(6, 6)
	tensor.GemmTransAInto(6, u.Rows, 6, u.Data, u.Data, utu.Data)
	vtv := tensor.New(6, 6)
	tensor.GemmTransAInto(6, v.Rows, 6, v.Data, v.Data, vtv.Data)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := float32(0)
			if i == j {
				want = 1
			}
			if math.Abs(float64(utu.At(i, j)-want)) > 1e-4 {
				t.Fatalf("UᵀU[%d,%d] = %v", i, j, utu.At(i, j))
			}
			if math.Abs(float64(vtv.At(i, j)-want)) > 1e-4 {
				t.Fatalf("VᵀV[%d,%d] = %v", i, j, vtv.At(i, j))
			}
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := tensor.New(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	a.Set(2, 2, 1)
	_, s, _ := SVD(a)
	want := []float32{3, 2, 1}
	for i := range want {
		if math.Abs(float64(s[i]-want[i])) > 1e-5 {
			t.Fatalf("singular values %v want %v", s, want)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := tensor.New(4, 3)
	x := []float32{1, 2, 3, 4}
	y := []float32{1, 0, -1}
	for i := range x {
		for j := range y {
			a.Set(i, j, x[i]*y[j])
		}
	}
	u, s, v := SVD(a)
	if s[0] < 1 {
		t.Fatalf("leading singular value %v too small", s[0])
	}
	for i := 1; i < len(s); i++ {
		if s[i] > 1e-5 {
			t.Fatalf("rank-1 matrix has extra singular value %v", s[i])
		}
	}
	back := reconstruct(u, s, v)
	if d := back.MaxAbsDiff(a); d > 1e-4 {
		t.Fatalf("rank-deficient reconstruction error %v", d)
	}
}

// TestDecomposeDenseExactForLowTTRank: a table generated from a TT table is
// recovered (up to float error) by TT-SVD with the same ranks.
func TestDecomposeDenseExactForLowTTRank(t *testing.T) {
	shape, err := NewShapeExplicit(60, 12, [Dims]int{3, 4, 5}, [Dims]int{2, 2, 3}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := NewTable(shape, tensor.NewRNG(42), 0.5)
	dense := src.Materialize()

	got, err := DecomposeDense(dense, shape)
	if err != nil {
		t.Fatal(err)
	}
	back := got.Materialize()
	if d := back.MaxAbsDiff(dense); d > 1e-3 {
		t.Fatalf("TT-SVD round trip error %v", d)
	}
}

// TestDecomposeDenseApproximationImprovesWithRank: for a random (full-rank)
// table, higher TT ranks give lower reconstruction error.
func TestDecomposeDenseApproximationImprovesWithRank(t *testing.T) {
	rows, dim := 48, 8
	r := tensor.NewRNG(43)
	dense := tensor.New(rows, dim)
	r.FillUniform(dense.Data, 1)

	errAt := func(rank int) float64 {
		shape, err := NewShapeExplicit(rows, dim, [Dims]int{4, 4, 3}, [Dims]int{2, 2, 2}, rank, rank)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := DecomposeDense(dense, shape)
		if err != nil {
			t.Fatal(err)
		}
		diff := tbl.Materialize()
		var s float64
		for i, v := range diff.Data {
			d := float64(v - dense.Data[i])
			s += d * d
		}
		return math.Sqrt(s)
	}
	e2, e6 := errAt(2), errAt(6)
	if e6 >= e2 {
		t.Fatalf("error did not improve with rank: rank2 %v rank6 %v", e2, e6)
	}
}

func TestDecomposeDenseShapeMismatch(t *testing.T) {
	shape, _ := NewShape(60, 8, 2)
	dense := tensor.New(61, 8)
	if _, err := DecomposeDense(dense, shape); err == nil {
		t.Fatal("mismatched dense table accepted")
	}
}

func TestDecomposeDenseRankTooLarge(t *testing.T) {
	shape, err := NewShapeExplicit(8, 8, [Dims]int{2, 2, 2}, [Dims]int{2, 2, 2}, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense := tensor.New(8, 8)
	if _, err := DecomposeDense(dense, shape); err == nil {
		t.Fatal("oversized rank accepted")
	}
}

func TestDecomposedTableTrainable(t *testing.T) {
	// A TT-SVD-initialized table must plug straight into forward/backward.
	shape, err := NewShapeExplicit(30, 8, [Dims]int{3, 2, 5}, [Dims]int{2, 2, 2}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(44)
	dense := tensor.New(30, 8)
	r.FillUniform(dense.Data, 0.5)
	tbl, err := DecomposeDense(dense, shape)
	if err != nil {
		t.Fatal(err)
	}
	out, cache := tbl.Forward([]int{1, 2}, []int{0, 1})
	tbl.Backward(cache, out, 0.1)
}
