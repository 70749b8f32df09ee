package tensor

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference triple loop used to validate the optimized
// kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func randomMatrix(r *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	r.FillUniform(m.Data, 1)
	return m
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1,2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, make([]float32, 3))
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v want 5", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 5 {
		t.Fatalf("Row(1)[2] = %v want 5", row[2])
	}
	row[0] = 7 // Row aliases storage.
	if m.At(1, 0) != 7 {
		t.Fatal("Row did not alias underlying data")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	r := NewRNG(1)
	m := randomMatrix(r, 5, 7)
	tr := m.transpose()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	back := tr.transpose()
	if back.MaxAbsDiff(m) != 0 {
		t.Fatal("double transpose is not identity")
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := NewRNG(2)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {33, 9, 21}, {64, 128, 32}}
	for _, s := range shapes {
		a := randomMatrix(r, s[0], s[1])
		b := randomMatrix(r, s[1], s[2])
		got := New(s[0], s[2])
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		if d := got.MaxAbsDiff(want); d > 1e-4 {
			t.Fatalf("MatMul %v deviates from naive by %v", s, d)
		}
	}
}

func TestMatMulLargeParallelPath(t *testing.T) {
	// Exceeds parallelThreshold so the ParallelFor branch executes.
	r := NewRNG(3)
	a := randomMatrix(r, 70, 60)
	b := randomMatrix(r, 60, 50)
	got := New(70, 50)
	MatMul(got, a, b)
	want := naiveMatMul(a, b)
	if d := got.MaxAbsDiff(want); d > 1e-3 {
		t.Fatalf("parallel MatMul deviates by %v", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 2), a, b)
}

func TestMatMulTransB(t *testing.T) {
	r := NewRNG(6)
	a := randomMatrix(r, 6, 4)
	b := randomMatrix(r, 5, 4) // bᵀ is 4x5
	got := New(6, 5)
	MatMulTransB(got, a, b)
	want := naiveMatMul(a, b.transpose())
	if d := got.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("MatMulTransB deviates by %v", d)
	}
}

func TestMatMulTransAAdd(t *testing.T) {
	r := NewRNG(8)
	a := randomMatrix(r, 5, 3)
	b := randomMatrix(r, 5, 2)
	dst := randomMatrix(r, 3, 2)
	before := dst.Clone()
	MatMulTransAAdd(dst, a, b)
	prod := naiveMatMul(a.transpose(), b)
	for i := range dst.Data {
		want := before.Data[i] + prod.Data[i]
		if math.Abs(float64(dst.Data[i]-want)) > 1e-4 {
			t.Fatalf("MatMulTransAAdd[%d] = %v want %v", i, dst.Data[i], want)
		}
	}
}

func TestAxpyDotScaleAdd(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	Axpy(2, x, y)
	want := []float32{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v want %v", y, want)
		}
	}
	Scale(0.5, want)
	if want[0] != 3 || want[2] != 6 {
		t.Fatalf("Scale result %v", want)
	}
	AddTo(want, []float32{1, 1, 1})
	if want[0] != 4 {
		t.Fatalf("AddTo result %v", want)
	}
}

func TestAxpyEmptyAndMismatch(t *testing.T) {
	Axpy(1, nil, nil) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy length mismatch did not panic")
		}
	}()
	Axpy(1, []float32{1}, []float32{1, 2})
}

// Property: (A·B)·C == A·(B·C) within float32 tolerance.
func TestQuickMatMulAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		c := randomMatrix(r, n, p)
		ab := New(m, n)
		MatMul(ab, a, b)
		abc1 := New(m, p)
		MatMul(abc1, ab, c)
		bc := New(k, p)
		MatMul(bc, b, c)
		abc2 := New(m, p)
		MatMul(abc2, a, bc)
		return abc1.MaxAbsDiff(abc2) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		ab := New(m, n)
		MatMul(ab, a, b)
		btat := New(n, m)
		MatMul(btat, b.transpose(), a.transpose())
		return ab.transpose().MaxAbsDiff(btat) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		seen := make([]int32, n)
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		ParallelFor(n, nil, func(_ any, lo, hi int) {
			<-mu
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu <- struct{}{}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelForSingleWorker(t *testing.T) {
	old := Workers()
	SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	count := 0
	ParallelFor(10, &count, func(ctx any, lo, hi int) { *ctx.(*int) += hi - lo })
	if count != 10 {
		t.Fatalf("single-worker ParallelFor covered %d of 10", count)
	}
}

func TestSetMaxWorkersClampsAndRestores(t *testing.T) {
	old := Workers()
	defer SetMaxWorkers(old)
	SetMaxWorkers(0)
	if Workers() != 1 {
		t.Fatalf("SetMaxWorkers(0) should clamp to 1, got %d", Workers())
	}
	SetMaxWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
}

// TestParallelForPoolConcurrentDispatch exercises the persistent pool with
// overlapping ParallelFor calls from many goroutines (the Forward contract
// allows concurrent lookups), checking every range index is covered exactly
// once per call. Run with -race this also vets the ticket/WaitGroup
// lifecycle.
func TestParallelForPoolConcurrentDispatch(t *testing.T) {
	old := Workers()
	SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				n := 97
				seen := make([]int32, n)
				ParallelFor(n, seen, countVisits)
				for i := range seen {
					if seen[i] != 1 {
						t.Errorf("index %d visited %d times", i, seen[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// countVisits is a ParallelFor body that counts each index of its range in
// ctx, a []int32.
func countVisits(ctx any, lo, hi int) {
	seen := ctx.([]int32)
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&seen[i], 1)
	}
}

// stressCase is one dispatch of TestParallelForRecycledHeadersStress: the
// visit count of each index, and the dispatch each index nests (nil for
// none).
type stressCase struct {
	seen  []int32
	inner []*stressCase
}

// stressBody counts the chunk's indices and runs each index's nested
// dispatch.
func stressBody(ctx any, lo, hi int) {
	c := ctx.(*stressCase)
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&c.seen[i], 1)
		if c.inner != nil {
			ParallelFor(len(c.inner[i].seen), c.inner[i], stressBody)
		}
	}
}

// check reports an index of c, or of a dispatch it nests, that did not run
// exactly once, and counts c's dispatches into dispatches.
func (c *stressCase) check(t *testing.T, dispatches *atomic.Int64) bool {
	dispatches.Add(1)
	for i, v := range c.seen {
		if v != 1 {
			t.Errorf("index %d of %d ran %d times", i, len(c.seen), v)
			return false
		}
	}
	for _, in := range c.inner {
		if !in.check(t, dispatches) {
			return false
		}
	}
	return true
}

// TestParallelForRecycledHeadersStress drives the recycled job headers
// hard: at four workers, four goroutines dispatch concurrently, every other
// dispatch nesting one dispatch per index, so headers are released by
// callers and by stale offers in every order. Each index of every dispatch
// must run exactly once — a header reused while an offer of its previous job
// was still queued would run a chunk twice or skip one. Under -race this
// also vets the reference counting.
func TestParallelForRecycledHeadersStress(t *testing.T) {
	defer SetMaxWorkers(Workers())
	SetMaxWorkers(4)
	const goroutines, iters = 4, 1000
	var dispatches atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				c := &stressCase{seen: make([]int32, 1+(iter+g)%9)}
				if iter%2 == 1 {
					c.inner = make([]*stressCase, len(c.seen))
					for i := range c.inner {
						c.inner[i] = &stressCase{seen: make([]int32, 1+(iter+i)%7)}
					}
				}
				ParallelFor(len(c.seen), c, stressBody)
				if !c.check(t, &dispatches) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := dispatches.Load(); n < 10_000 {
		t.Fatalf("%d dispatches, want at least 10 000", n)
	}
}

func TestStringAndMisc(t *testing.T) {
	m := New(2, 3)
	if m.String() == "" {
		t.Fatal("empty String()")
	}
	c := m.Clone()
	c.Set(0, 0, 1)
	m.CopyFrom(c)
	if m.At(0, 0) != 1 {
		t.Fatal("CopyFrom failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom shape mismatch did not panic")
		}
	}()
	m.CopyFrom(New(3, 2))
}

func TestMaxAbsDiffShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAbsDiff shape mismatch did not panic")
		}
	}()
	New(1, 2).MaxAbsDiff(New(2, 1))
}

func TestMatMulAddShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { MatMulTransB(New(2, 2), New(2, 3), New(4, 4)) },
		func() { MatMulTransB(New(3, 3), New(2, 3), New(4, 3)) },
		func() { MatMulTransAAdd(New(3, 3), New(3, 2), New(3, 2)) },
		func() { MatMulTransAAdd(New(2, 2), New(3, 2), New(4, 2)) },
		func() { MatMul(New(2, 2), New(2, 3), New(3, 3)) },
		func() { AddTo([]float32{1}, []float32{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch did not panic")
				}
			}()
			f()
		}()
	}
}
