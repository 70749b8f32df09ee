package tensor

import "testing"

func TestGemmIntoAndAdd(t *testing.T) {
	r := NewRNG(13)
	a := randomMatrix(r, 3, 4)
	b := randomMatrix(r, 4, 2)
	c := make([]float32, 6)
	GemmInto(3, 4, 2, a.Data, b.Data, c)
	want := naiveMatMul(a, b)
	if d := FromSlice(3, 2, c).MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("GemmInto deviates by %v", d)
	}
}

func TestGemmTransAAddInto(t *testing.T) {
	r := NewRNG(14)
	a := randomMatrix(r, 5, 3) // k×m, aᵀ: 3×5
	b := randomMatrix(r, 5, 2)
	c := make([]float32, 6)
	GemmTransAAddInto(3, 5, 2, 1, a.Data, b.Data, c)
	want := naiveMatMul(a.Transpose(), b)
	if d := FromSlice(3, 2, c).MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("GemmTransAAddInto deviates by %v", d)
	}
}

func TestGemmTransBAddInto(t *testing.T) {
	r := NewRNG(15)
	a := randomMatrix(r, 4, 3)
	b := randomMatrix(r, 2, 3) // n×k, bᵀ: 3×2
	c := make([]float32, 8)
	GemmTransBAddInto(4, 3, 2, a.Data, b.Data, c)
	want := naiveMatMul(a, b.Transpose())
	if d := FromSlice(4, 2, c).MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("GemmTransBAddInto deviates by %v", d)
	}
}
