package embedding

import (
	"math"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func newTestBag(rows, dim int, seed uint64) *Bag {
	return NewBag(rows, dim, tensor.NewRNG(seed))
}

func TestNewBagInitializationScale(t *testing.T) {
	b := newTestBag(100, 8, 1)
	bound := float32(0.1) // sqrt(1/100)
	for _, v := range b.Weights.Data {
		if v < -bound || v > bound {
			t.Fatalf("init value %v outside ±%v", v, bound)
		}
	}
	if b.NumRows() != 100 || b.Dim() != 8 {
		t.Fatalf("shape accessors: %d, %d", b.NumRows(), b.Dim())
	}
	if b.FootprintBytes() != 100*8*4 {
		t.Fatalf("FootprintBytes = %d", b.FootprintBytes())
	}
}

func TestNewBagInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBag(0, 8) did not panic")
		}
	}()
	NewBag(0, 8, tensor.NewRNG(1))
}

func TestLookupSingleIndexBags(t *testing.T) {
	b := newTestBag(10, 4, 2)
	indices := []int{3, 7, 0}
	offsets := []int{0, 1, 2} // three samples, one index each
	out := b.Lookup(indices, offsets)
	for s, idx := range indices {
		for j := 0; j < 4; j++ {
			if out.At(s, j) != b.Weights.At(idx, j) {
				t.Fatalf("sample %d column %d mismatch", s, j)
			}
		}
	}
}

func TestLookupSumPooling(t *testing.T) {
	b := newTestBag(10, 3, 3)
	indices := []int{1, 2, 5}
	offsets := []int{0} // one sample with three indices
	out := b.Lookup(indices, offsets)
	for j := 0; j < 3; j++ {
		want := b.Weights.At(1, j) + b.Weights.At(2, j) + b.Weights.At(5, j)
		if math.Abs(float64(out.At(0, j)-want)) > 1e-6 {
			t.Fatalf("pooled[%d] = %v want %v", j, out.At(0, j), want)
		}
	}
}

func TestLookupEmptyBagIsZero(t *testing.T) {
	b := newTestBag(10, 3, 4)
	// Sample 0 has no indices, sample 1 has one.
	out := b.Lookup([]int{4}, []int{0, 0})
	for j := 0; j < 3; j++ {
		if out.At(0, j) != 0 {
			t.Fatal("empty bag must produce zero embedding")
		}
		if out.At(1, j) != b.Weights.At(4, j) {
			t.Fatal("second bag wrong")
		}
	}
}

func TestLookupValidation(t *testing.T) {
	b := newTestBag(10, 3, 5)
	cases := []struct {
		name             string
		indices, offsets []int
	}{
		{"empty offsets", []int{1}, nil},
		{"nonzero first offset", []int{1}, []int{1}},
		{"decreasing offsets", []int{1, 2}, []int{0, 2, 1}},
		{"offset beyond indices", []int{1}, []int{0, 5}},
		{"negative index", []int{-1}, []int{0}},
		{"index out of range", []int{10}, []int{0}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			b.Lookup(c.indices, c.offsets)
		}()
	}
}

func TestBackwardAggregatesDuplicates(t *testing.T) {
	b := newTestBag(10, 2, 6)
	// Row 3 appears in both samples; row 5 once.
	indices := []int{3, 5, 3}
	offsets := []int{0, 2}
	dOut := tensor.FromSlice(2, 2, []float32{1, 2, 10, 20})
	g := b.Backward(indices, offsets, dOut)
	if len(g.Rows) != 2 {
		t.Fatalf("unique rows = %v want [3 5]", g.Rows)
	}
	// Row 3 gets sample0 + sample1 grads, row 5 only sample0.
	byRow := map[int][]float32{}
	for i, r := range g.Rows {
		byRow[r] = g.Grads.Row(i)
	}
	if byRow[3][0] != 11 || byRow[3][1] != 22 {
		t.Fatalf("grad row3 = %v want [11 22]", byRow[3])
	}
	if byRow[5][0] != 1 || byRow[5][1] != 2 {
		t.Fatalf("grad row5 = %v want [1 2]", byRow[5])
	}
}

func TestBackwardShapeMismatchPanics(t *testing.T) {
	b := newTestBag(4, 2, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward with wrong grad shape did not panic")
		}
	}()
	b.Backward([]int{1}, []int{0}, tensor.New(2, 2))
}

func TestApplySGDUpdatesOnlyTouchedRows(t *testing.T) {
	b := newTestBag(6, 2, 8)
	before := b.Weights.Clone()
	indices := []int{2}
	offsets := []int{0}
	dOut := tensor.FromSlice(1, 2, []float32{1, -1})
	b.Update(indices, offsets, dOut, 0.5)
	for r := 0; r < 6; r++ {
		for j := 0; j < 2; j++ {
			want := before.At(r, j)
			if r == 2 {
				want -= 0.5 * dOut.At(0, j)
			}
			if math.Abs(float64(b.Weights.At(r, j)-want)) > 1e-6 {
				t.Fatalf("row %d col %d = %v want %v", r, j, b.Weights.At(r, j), want)
			}
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	b := newTestBag(8, 3, 9)
	rows := []int{1, 4, 6}
	got := b.GatherRows(rows)
	for i, r := range rows {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != b.Weights.At(r, j) {
				t.Fatal("GatherRows copied wrong data")
			}
		}
	}
	// Into positions: row rows[k] lands in dst.Row(at[k]); other rows keep
	// what they held.
	dst := tensor.New(4, 3)
	dst.Set(0, 0, -7)
	b.GatherRowsInto(dst, rows, []int{3, 1, 2})
	for k, at := range []int{3, 1, 2} {
		for j := 0; j < 3; j++ {
			if dst.At(at, j) != got.At(k, j) {
				t.Fatalf("GatherRowsInto put row %d's column %d wrong in slot %d", rows[k], j, at)
			}
		}
	}
	if dst.At(0, 0) != -7 {
		t.Fatal("GatherRowsInto wrote a row it was not given")
	}
	// ScatterAdd of zeros is identity; of deltas adds.
	delta := tensor.New(3, 3)
	delta.Set(1, 2, 5)
	before := b.Weights.At(4, 2)
	b.ScatterAdd(rows, delta)
	if b.Weights.At(4, 2) != before+5 {
		t.Fatal("ScatterAdd did not add delta")
	}
}

func TestGatherRowsOutOfRangePanics(t *testing.T) {
	b := newTestBag(4, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("GatherRows out of range did not panic")
		}
	}()
	b.GatherRows([]int{4})
}

func TestUniqueBasic(t *testing.T) {
	uniq, inv := Unique([]int{5, 3, 5, 7, 3})
	wantU := []int{5, 3, 7}
	if len(uniq) != 3 {
		t.Fatalf("uniq = %v", uniq)
	}
	for i := range wantU {
		if uniq[i] != wantU[i] {
			t.Fatalf("uniq = %v want %v", uniq, wantU)
		}
	}
	for p, u := range inv {
		if uniq[u] != []int{5, 3, 5, 7, 3}[p] {
			t.Fatalf("inverse[%d] wrong", p)
		}
	}
}

func TestUniqueEmpty(t *testing.T) {
	uniq, inv := Unique(nil)
	if len(uniq) != 0 || len(inv) != 0 {
		t.Fatal("Unique(nil) not empty")
	}
}

// Property: Unique produces a valid inverse mapping and no duplicates.
func TestQuickUniqueInverse(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := r.Intn(50)
		indices := make([]int, n)
		for i := range indices {
			indices[i] = r.Intn(10)
		}
		uniq, inv := Unique(indices)
		seen := map[int]bool{}
		for _, u := range uniq {
			if seen[u] {
				return false
			}
			seen[u] = true
		}
		for p := range indices {
			if uniq[inv[p]] != indices[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Update equals a dense gradient-descent step on the materialized
// table.
func TestQuickSparseStepMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		rows, dim := 2+r.Intn(8), 1+r.Intn(5)
		b := NewBag(rows, dim, tensor.NewRNG(seed+1))
		dense := b.Weights.Clone()

		batch := 1 + r.Intn(4)
		var indices []int
		offsets := make([]int, batch)
		for s := 0; s < batch; s++ {
			offsets[s] = len(indices)
			k := 1 + r.Intn(3)
			for i := 0; i < k; i++ {
				indices = append(indices, r.Intn(rows))
			}
		}
		dOut := tensor.New(batch, dim)
		r.FillUniform(dOut.Data, 1)

		const lr = 0.1
		b.Update(indices, offsets, dOut, lr)

		// Dense reference: accumulate full-table gradient then subtract.
		full := tensor.New(rows, dim)
		for s := 0; s < batch; s++ {
			lo := offsets[s]
			hi := len(indices)
			if s+1 < batch {
				hi = offsets[s+1]
			}
			for _, idx := range indices[lo:hi] {
				tensor.AddTo(full.Row(idx), dOut.Row(s))
			}
		}
		tensor.Axpy(-lr, full.Data, dense.Data)
		return b.Weights.MaxAbsDiff(dense) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// zipfishBatch draws a batch of n single-index bags over rows whose ids
// repeat, as a training stream's do.
func zipfishBatch(r *tensor.RNG, rows, n int) (indices, offsets []int) {
	indices, offsets = make([]int, n), make([]int, n)
	for s := range indices {
		indices[s] = r.Intn(1 + r.Intn(rows))
		offsets[s] = s
	}
	return indices, offsets
}

// oracleGrad is the per-row batch gradient computed independently of the
// Bag's scratch: Unique's first-occurrence rows, each summed from a fresh
// zero row over its occurrences in position order.
func oracleGrad(indices, offsets []int, dOut *tensor.Matrix) ([]int, *tensor.Matrix) {
	uniq, inverse := Unique(indices)
	g := tensor.New(len(uniq), dOut.Cols)
	for s := range offsets {
		lo, hi := BagBounds(offsets, s, len(indices))
		for p := lo; p < hi; p++ {
			tensor.AddTo(g.Row(inverse[p]), dOut.Row(s))
		}
	}
	return uniq, g
}

// TestUpdateMatchesBackwardBitForBit pins Backward to an independent
// gradient oracle and Update (SGD and AdagradBag's) to that gradient
// applied row by row in its order, bit for bit, over a stream of batches of
// changing size and bag shape on one Bag, so the scratch is reused both
// grown and shrunk.
func TestUpdateMatchesBackwardBitForBit(t *testing.T) {
	const rows, dim, lr = 50, 5, 0.3
	r := tensor.NewRNG(11)
	b := NewBag(rows, dim, tensor.NewRNG(12))
	ref := b.Weights.Clone()
	ada := NewAdagradBag(NewBag(rows, dim, tensor.NewRNG(12)))
	adaRef, accum := ada.Weights.Clone(), make([]float32, rows*dim)
	for step, n := range []int{40, 7, 64, 1, 33, 64} {
		indices, offsets := zipfishBatch(r, rows, n)
		if step%2 == 1 { // multi-index bags: two samples share the batch
			offsets = []int{0, n / 2}
		}
		dOut := tensor.New(len(offsets), dim)
		r.FillUniform(dOut.Data, 1)
		dOut.Data[0] = float32(math.Copysign(0, -1)) // a −0 gradient must keep its bits

		uniq, grads := oracleGrad(indices, offsets, dOut)
		got := b.Backward(indices, offsets, dOut)
		if !slices.Equal(got.Rows, uniq) || !bitsEqual(got.Grads.Data, grads.Data) {
			t.Fatalf("step %d: Backward differs from the oracle gradient", step)
		}
		for i, row := range uniq {
			tensor.Axpy(-lr, grads.Row(i), ref.Row(row))
			wrow, arow := adaRef.Row(row), accum[row*dim:(row+1)*dim]
			for j, gv := range grads.Row(i) {
				arow[j] += gv * gv
				wrow[j] -= lr * gv / float32(math.Sqrt(float64(arow[j])+float64(ada.Eps)))
			}
		}
		b.Update(indices, offsets, dOut, lr)
		ada.Update(indices, offsets, dOut, lr)
		if !bitsEqual(b.Weights.Data, ref.Data) {
			t.Fatalf("step %d: Update differs from the oracle gradient's SGD step", step)
		}
		if !bitsEqual(ada.Weights.Data, adaRef.Data) {
			t.Fatalf("step %d: AdagradBag.Update differs from the oracle gradient's Adagrad step", step)
		}
	}
}

// bitsEqual reports whether two float slices hold the same bits.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBagLookupUpdateZeroAllocFreshBatches is the table-scratch contract at
// runtime: once a Bag has seen one batch of the stream's size, a
// Lookup/Update step on batches it has never seen allocates nothing, even
// when a batch has more unique rows than any before it.
func TestBagLookupUpdateZeroAllocFreshBatches(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rows, dim, n = 1000, 8, 128
	r := tensor.NewRNG(13)
	b := NewBag(rows, dim, tensor.NewRNG(14))
	a := NewAdagradBag(NewBag(rows, dim, tensor.NewRNG(14)))
	batches := make([][]int, 101)
	var offsets []int
	for i := range batches {
		batches[i], offsets = zipfishBatch(r, rows, n)
	}
	for i := range batches[0] { // the warm-up batch repeats one row: its dedup is tiny
		batches[0][i] = 3
	}
	dOut := tensor.New(n, dim)
	r.FillUniform(dOut.Data, 1)
	step := func(k int) {
		out := b.Lookup(batches[k], offsets)
		b.Update(batches[k], offsets, out, 0.01)
		a.Lookup(batches[k], offsets)
		a.Update(batches[k], offsets, dOut, 0.01)
	}
	step(0)
	k := 0 // AllocsPerRun makes one untimed run first: batches 1..100 are all fresh
	if allocs := testing.AllocsPerRun(len(batches)-2, func() { k++; step(k) }); allocs != 0 {
		t.Fatalf("Lookup/Update over fresh batches allocated %v times per step, want 0", allocs)
	}
}

// TestBagViewSharesWeightsNotScratch: a view reads the same rows as its
// source and sees its updates, but its Lookup result is its own, so the
// source's stays valid across the view's lookups.
func TestBagViewSharesWeightsNotScratch(t *testing.T) {
	b := newTestBag(10, 3, 15)
	v := b.View()
	src := b.Lookup([]int{1, 2}, []int{0, 1})
	want := src.Clone()
	got := v.Lookup([]int{7}, []int{0})
	if got == src {
		t.Fatal("view returned the source's Lookup matrix")
	}
	if src.MaxAbsDiff(want) != 0 {
		t.Fatal("a view's Lookup overwrote the source's result")
	}
	b.Update([]int{7}, []int{0}, tensor.FromSlice(1, 3, []float32{1, 1, 1}), 1)
	if v.Lookup([]int{7}, []int{0}).At(0, 0) != b.Weights.At(7, 0) {
		t.Fatal("view does not read the source's updated rows")
	}
}
