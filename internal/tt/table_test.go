package tt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// testShape returns a small awkward shape (padding, non-uniform factors).
func testShape(t *testing.T) Shape {
	t.Helper()
	s, err := NewShapeExplicit(95, 12, [Dims]int{4, 5, 5}, [Dims]int{2, 2, 3}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestTable(t *testing.T, seed uint64) *Table {
	tbl := NewTable(testShape(t), tensor.NewRNG(seed), 0.1)
	return tbl
}

// serialWorkers pins the worker pool to one executor for the rest of the
// test. The per-occurrence baseline backward applies slice updates in
// whatever order its goroutines reach them, so tests that compare its bits
// need it. The Eff-TT forward and two-level backward are
// worker-count-invariant.
func serialWorkers(t *testing.T) {
	t.Helper()
	old := tensor.Workers()
	tensor.SetMaxWorkers(1)
	t.Cleanup(func() { tensor.SetMaxWorkers(old) })
}

// refLookup computes pooled embeddings from the materialized table.
func refLookup(mat *tensor.Matrix, indices, offsets []int) *tensor.Matrix {
	out := tensor.New(len(offsets), mat.Cols)
	for s := range offsets {
		lo := offsets[s]
		hi := len(indices)
		if s+1 < len(offsets) {
			hi = offsets[s+1]
		}
		for _, idx := range indices[lo:hi] {
			tensor.AddTo(out.Row(s), mat.Row(idx))
		}
	}
	return out
}

// randomBatch builds a random indices/offsets batch over [0,rows).
func randomBatch(r *tensor.RNG, rows, batchSize, maxBag int) (indices, offsets []int) {
	offsets = make([]int, batchSize)
	for s := 0; s < batchSize; s++ {
		offsets[s] = len(indices)
		k := 1 + r.Intn(maxBag)
		for i := 0; i < k; i++ {
			indices = append(indices, r.Intn(rows))
		}
	}
	return indices, offsets
}

func TestLookupRowMatchesMaterialize(t *testing.T) {
	tbl := newTestTable(t, 1)
	mat := tbl.Materialize()
	row := make([]float32, tbl.Dim())
	for _, i := range []int{0, 1, 47, 94} {
		tbl.LookupRow(i, row)
		for j := 0; j < tbl.Dim(); j++ {
			if math.Abs(float64(row[j]-mat.At(i, j))) > 1e-5 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, row[j], mat.At(i, j))
			}
		}
	}
}

func TestLookupRowValidation(t *testing.T) {
	tbl := newTestTable(t, 2)
	row := make([]float32, tbl.Dim())
	for _, bad := range []int{-1, 95, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LookupRow(%d) did not panic", bad)
				}
			}()
			tbl.LookupRow(bad, row)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LookupRow with short dst did not panic")
		}
	}()
	tbl.LookupRow(0, row[:2])
}

func TestForwardMatchesReferenceAllOptionCombos(t *testing.T) {
	r := tensor.NewRNG(3)
	for combo := 0; combo < 4; combo++ {
		tbl := newTestTable(t, 4)
		tbl.Opts.DedupIndices = combo&1 != 0
		tbl.Opts.ReusePrefix = combo&2 != 0
		mat := tbl.Materialize()
		indices, offsets := randomBatch(r, tbl.NumRows(), 16, 4)
		got, cache := tbl.forward(indices, offsets)
		want := refLookup(mat, indices, offsets)
		if d := got.MaxAbsDiff(want); d > 1e-4 {
			t.Fatalf("combo %d deviates by %v", combo, d)
		}
		if cache == nil || cache.Rows == nil {
			t.Fatalf("combo %d produced nil cache", combo)
		}
		if tbl.Opts.ReusePrefix && cache.PrefixBuf == nil {
			t.Fatalf("combo %d should have a prefix buffer", combo)
		}
		if !tbl.Opts.ReusePrefix && cache.PrefixBuf != nil {
			t.Fatalf("combo %d should not have a prefix buffer", combo)
		}
	}
}

func TestForwardDedupComputesEachRowOnce(t *testing.T) {
	tbl := newTestTable(t, 5)
	indices := []int{7, 7, 7, 7, 3}
	offsets := []int{0, 2, 4}
	_, cache := tbl.forward(indices, offsets)
	if len(cache.WorkIdx) != 2 {
		t.Fatalf("dedup left %d work items, want 2", len(cache.WorkIdx))
	}
}

func TestForwardPrefixBufferDedupsPrefixes(t *testing.T) {
	tbl := newTestTable(t, 6)
	m3 := tbl.Shape.RowFactors[2]
	// Indices sharing the same (i1,i2) prefix (consecutive within m3 block).
	indices := []int{0, 1, 2, m3, m3 + 1}
	offsets := []int{0}
	_, cache := tbl.forward(indices, offsets)
	if cache.PrefixBuf.Rows != 2 {
		t.Fatalf("prefix buffer has %d rows, want 2", cache.PrefixBuf.Rows)
	}
}

func TestForwardMapPathForLargePrefixSpace(t *testing.T) {
	// A prefix space (10 000) far larger than the batch: the dedup is sized to
	// the batch, whatever the space.
	s, err := NewShapeExplicit(100000, 8, [Dims]int{100, 100, 10}, [Dims]int{2, 2, 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s, tensor.NewRNG(7), 0.1)
	r := tensor.NewRNG(8)
	indices, offsets := randomBatch(r, s.Rows, 8, 3)
	got, _ := tbl.forward(indices, offsets)
	want := make([]float32, s.Dim)
	row := make([]float32, s.Dim)
	// Reference via LookupRow (no full materialization at 100k rows).
	lo := offsets[1]
	clear(want)
	for _, idx := range indices[offsets[0]:lo] {
		tbl.LookupRow(idx, row)
		tensor.AddTo(want, row)
	}
	for j := range want {
		if math.Abs(float64(got.At(0, j)-want[j])) > 1e-4 {
			t.Fatalf("large-prefix-space sample 0 col %d: %v vs %v", j, got.At(0, j), want[j])
		}
	}
}

func TestForwardEmptyBagAndValidation(t *testing.T) {
	tbl := newTestTable(t, 9)
	out, _ := tbl.forward([]int{5}, []int{0, 0}) // first bag empty
	for j := 0; j < tbl.Dim(); j++ {
		if out.At(0, j) != 0 {
			t.Fatal("empty bag must be zero")
		}
	}
	cases := []struct {
		name             string
		indices, offsets []int
	}{
		{"empty offsets", []int{1}, nil},
		{"bad first offset", []int{1}, []int{1}},
		{"decreasing", []int{1, 2}, []int{0, 2, 1}},
		{"index out of range", []int{95}, []int{0}},
		{"negative index", []int{-2}, []int{0}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			tbl.forward(c.indices, c.offsets)
		}()
	}
}

// Property: all four forward option combinations agree with each other on
// random batches and random shapes.
func TestQuickForwardOptionAgreement(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		rows := 10 + r.Intn(200)
		dims := []int{8, 12, 16, 27}
		dim := dims[r.Intn(len(dims))]
		s, err := NewShape(rows, dim, 1+r.Intn(5))
		if err != nil {
			return true // unfactorizable dim; skip
		}
		base := NewTable(s, tensor.NewRNG(seed+1), 0.1)
		indices, offsets := randomBatch(r, rows, 1+r.Intn(8), 3)
		ref, _ := base.forward(indices, offsets)
		for combo := 0; combo < 3; combo++ {
			base.Opts.DedupIndices = combo&1 != 0
			base.Opts.ReusePrefix = combo&2 != 0
			got, _ := base.forward(indices, offsets)
			if got.MaxAbsDiff(ref) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTableInitializationStd(t *testing.T) {
	s, err := NewShape(4000, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s, tensor.NewRNG(10), 0.05)
	mat := tbl.Materialize()
	var sum, sumsq float64
	for _, v := range mat.Data {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(len(mat.Data))
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("materialized mean %v too large", mean)
	}
	// Within a factor ~3 of the target: the product-of-gaussians variance
	// estimate is approximate.
	if std < 0.05/3 || std > 0.05*3 {
		t.Fatalf("materialized std %v not near 0.05", std)
	}
}

func TestFootprintSmallerThanDense(t *testing.T) {
	s, err := NewShape(100000, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s, tensor.NewRNG(11), 0)
	dense := int64(100000) * 64 * 4
	if tbl.FootprintBytes() >= dense/10 {
		t.Fatalf("TT footprint %d not ≪ dense %d", tbl.FootprintBytes(), dense)
	}
	if tbl.NumRows() != 100000 || tbl.Dim() != 64 {
		t.Fatal("accessor mismatch")
	}
}

func TestLookupUpdateInterface(t *testing.T) {
	tbl := newTestTable(t, 12)
	indices, offsets := []int{1, 2, 3}, []int{0, 1}
	out := tbl.Lookup(indices, offsets)
	before := tbl.Materialize()
	dOut := tensor.New(out.Rows, out.Cols)
	for i := range dOut.Data {
		dOut.Data[i] = 0.1
	}
	tbl.Update(indices, offsets, dOut, 0.01)
	after := tbl.Materialize()
	if before.MaxAbsDiff(after) == 0 {
		t.Fatal("Update changed nothing")
	}
	// Update without a matching Lookup must still work (it runs the forward itself).
	tbl.Update([]int{4}, []int{0}, tensor.New(1, tbl.Dim()), 0.01)
}

func TestLookupRowPaddedBoundary(t *testing.T) {
	// The last logical row sits inside the padded index space; rows beyond
	// Rows are rejected even though the TT representation could address
	// them.
	s, err := NewShapeExplicit(97, 8, [Dims]int{4, 5, 5}, [Dims]int{2, 2, 2}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s, tensor.NewRNG(50), 0.1)
	row := make([]float32, 8)
	tbl.LookupRow(96, row) // last valid row
	defer func() {
		if recover() == nil {
			t.Fatal("padded-region index accepted")
		}
	}()
	tbl.LookupRow(97, row)
}

// Property: backward with random option combinations keeps cores finite and
// panics never; unfused aggregated updates match across forward variants.
func TestQuickBackwardOptionAgreement(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		rows := 20 + r.Intn(100)
		s, err := NewShape(rows, 8, 1+r.Intn(4))
		if err != nil {
			return true
		}
		indices, offsets := randomBatch(r, rows, 1+r.Intn(6), 3)
		dOut := tensor.New(len(offsets), 8)
		r.FillUniform(dOut.Data, 1)

		run := func(dedup, reuse bool) *Table {
			tbl := NewTable(s, tensor.NewRNG(seed+99), 0.1)
			tbl.Opts = Options{DedupIndices: dedup, ReusePrefix: reuse, InAdvanceAgg: true, FusedUpdate: false}
			_, cache := tbl.forward(indices, offsets)
			tbl.backward(cache, dOut, 0.05)
			return tbl
		}
		ref := run(true, true)
		for _, combo := range [][2]bool{{true, false}, {false, true}, {false, false}} {
			got := run(combo[0], combo[1])
			for k := 0; k < Dims; k++ {
				if got.Cores[k].MaxAbsDiff(ref.Cores[k]) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
