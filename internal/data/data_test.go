package data

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/embedding"
	"repro/internal/tensor/workertest"
)

func smallSpec() Spec {
	return Spec{
		Name:         "test",
		NumDense:     3,
		TableRows:    []int{500, 64, 1000},
		ZipfS:        1.2,
		ZipfV:        2,
		GroupSize:    32,
		ActiveGroups: 4,
		Locality:     0.8,
		Samples:      100000,
		Seed:         7,
	}
}

func TestSpecValidate(t *testing.T) {
	good := smallSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.TableRows = nil },
		func(s *Spec) { s.TableRows = []int{0} },
		func(s *Spec) { s.NumDense = -1 },
		func(s *Spec) { s.ZipfS = 1.0 },
		func(s *Spec) { s.ZipfV = 0.5 },
		func(s *Spec) { s.GroupSize = 0 },
		func(s *Spec) { s.ActiveGroups = 0 },
		func(s *Spec) { s.Locality = 1.5 },
	}
	for i, mutate := range cases {
		s := smallSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

func TestPresetSpecsValid(t *testing.T) {
	for _, name := range []string{"avazu", "kaggle", "terabyte"} {
		s, err := SpecByName(name, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := New(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := SpecByName("bogus", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPresetSchemas(t *testing.T) {
	a := AvazuSpec(1)
	if a.NumDense != 1 || a.NumTables() != 20 {
		t.Fatalf("avazu schema %d dense %d tables", a.NumDense, a.NumTables())
	}
	k := KaggleSpec(1)
	if k.NumDense != 13 || k.NumTables() != 26 {
		t.Fatalf("kaggle schema %d dense %d tables", k.NumDense, k.NumTables())
	}
	tb := TerabyteSpec(1)
	if tb.NumDense != 13 || tb.NumTables() != 26 {
		t.Fatalf("terabyte schema %d dense %d tables", tb.NumDense, tb.NumTables())
	}
	// Terabyte footprint at dim 128 should be in the paper's ~59 GB regime.
	gb := float64(tb.EmbeddingBytes(128)) / 1e9
	if gb < 45 || gb > 75 {
		t.Fatalf("terabyte embedding footprint %.1f GB, want ≈59", gb)
	}
}

func TestBatchDeterminism(t *testing.T) {
	d, err := New(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := d.Batch(5, 64)
	b := d.Batch(5, 64)
	if a.Dense.MaxAbsDiff(b.Dense) != 0 {
		t.Fatal("dense features not deterministic")
	}
	for tt := range a.Sparse {
		for s := range a.Sparse[tt] {
			if a.Sparse[tt][s] != b.Sparse[tt][s] {
				t.Fatal("sparse indices not deterministic")
			}
		}
	}
	for s := range a.Labels {
		if a.Labels[s] != b.Labels[s] {
			t.Fatal("labels not deterministic")
		}
	}
	// Different iteration numbers give different batches.
	c := d.Batch(6, 64)
	same := true
	for tt := range a.Sparse {
		for s := range a.Sparse[tt] {
			if a.Sparse[tt][s] != c.Sparse[tt][s] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("consecutive batches identical")
	}
}

func TestBatchShapeAndRanges(t *testing.T) {
	spec := smallSpec()
	d, _ := New(spec)
	b := d.Batch(0, 32)
	if b.Size() != 32 {
		t.Fatalf("batch size %d", b.Size())
	}
	if b.Dense.Rows != 32 || b.Dense.Cols != spec.NumDense {
		t.Fatalf("dense shape %dx%d", b.Dense.Rows, b.Dense.Cols)
	}
	if len(b.Sparse) != spec.NumTables() {
		t.Fatalf("%d sparse tables", len(b.Sparse))
	}
	for tt, col := range b.Sparse {
		if len(col) != 32 {
			t.Fatalf("table %d has %d indices", tt, len(col))
		}
		for _, idx := range col {
			if idx < 0 || idx >= spec.TableRows[tt] {
				t.Fatalf("table %d index %d out of range", tt, idx)
			}
		}
	}
	for s, o := range b.Offsets {
		if o != s {
			t.Fatalf("offsets not identity: %v", b.Offsets[:8])
		}
	}
	for _, l := range b.Labels {
		if l != 0 && l != 1 {
			t.Fatalf("label %v not binary", l)
		}
	}
}

func TestBatchSizePanics(t *testing.T) {
	d, _ := New(smallSpec())
	defer func() {
		if recover() == nil {
			t.Fatal("Batch(0,0) did not panic")
		}
	}()
	d.Batch(0, 0)
}

func TestAccessSkewPowerLaw(t *testing.T) {
	// Figure 4(a): a small fraction of rows covers most accesses.
	d, _ := New(smallSpec())
	counts := d.AccessCounts(2, 50, 256) // table 2 (1000 rows)
	curve := CumulativeAccessCurve(counts, []float64{0.05, 0.25, 1.0})
	if curve[0] < 0.3 {
		t.Fatalf("top 5%% of rows cover only %.2f of accesses, want skew", curve[0])
	}
	if curve[1] <= curve[0] || curve[2] < 0.999 {
		t.Fatalf("curve not monotone to 1: %v", curve)
	}
}

func TestUniquePerBatchGap(t *testing.T) {
	// Figure 4(b): unique indices ≪ batch size.
	d, _ := New(smallSpec())
	avg := d.AvgUniquePerBatch(0, 20, 512)
	if avg >= 512 {
		t.Fatalf("avg unique %v not below batch size", avg)
	}
	if avg < 1 {
		t.Fatalf("degenerate unique count %v", avg)
	}
	// Unique count must grow sublinearly with batch size.
	avg2 := d.AvgUniquePerBatch(0, 20, 1024)
	if avg2 >= 2*avg {
		t.Fatalf("unique count grew linearly: %v -> %v", avg, avg2)
	}
	all := d.AvgUniqueAllTables(5, 256)
	if all <= 0 || all >= 256 {
		t.Fatalf("AvgUniqueAllTables = %v", all)
	}
}

func TestCumulativeAccessCurveEdgeCases(t *testing.T) {
	if got := CumulativeAccessCurve([]int64{0, 0}, []float64{0.5, 1}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero counts curve %v", got)
	}
	got := CumulativeAccessCurve([]int64{10}, []float64{1})
	if got[0] != 1 {
		t.Fatalf("single row curve %v", got)
	}
}

func TestLabelRateReasonable(t *testing.T) {
	d, _ := New(smallSpec())
	rate := d.LabelRate(20, 256)
	if rate < 0.05 || rate > 0.8 {
		t.Fatalf("label rate %v outside a learnable CTR range", rate)
	}
}

func TestLabelsCorrelateWithHiddenModel(t *testing.T) {
	// Indices with positive hidden effect should have higher empirical CTR
	// than those with negative effect, so models can learn the task.
	spec := smallSpec()
	d, _ := New(spec)
	var posSum, posN, negSum, negN float64
	for it := 0; it < 80; it++ {
		b := d.Batch(it, 256)
		for s := 0; s < b.Size(); s++ {
			eff := indexEffect(spec.Seed, 0, b.Sparse[0][s])
			if eff > 0.2 {
				posSum += float64(b.Labels[s])
				posN++
			} else if eff < -0.2 {
				negSum += float64(b.Labels[s])
				negN++
			}
		}
	}
	if posN == 0 || negN == 0 {
		t.Skip("not enough extreme-effect samples")
	}
	if posSum/posN <= negSum/negN {
		t.Fatalf("labels uncorrelated with hidden effects: %v vs %v", posSum/posN, negSum/negN)
	}
}

func TestGroupLocalityInBatches(t *testing.T) {
	// Samples within one batch should share hidden groups far more often
	// than across random batches — the property index reordering exploits.
	spec := smallSpec()
	d, _ := New(spec)
	groupOf := make(map[int]int) // actual id -> hidden group (table 0)
	for ordered, actual := range d.scatter[0] {
		groupOf[int(actual)] = ordered / spec.GroupSize
	}
	intra := map[int]int{}
	b := d.Batch(0, 256)
	for _, idx := range b.Sparse[0] {
		intra[groupOf[idx]]++
	}
	// With 4 active groups and locality 0.8, the top-4 groups should cover
	// well over half the batch.
	top := topKSum(intra, 4)
	if float64(top) < 0.5*256 {
		t.Fatalf("top-4 groups cover %d/256 samples; locality too weak", top)
	}
}

func topKSum(m map[int]int, k int) int {
	vals := make([]int, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	// Simple selection for tiny slices.
	sum := 0
	for i := 0; i < k && len(vals) > 0; i++ {
		best := 0
		for j, v := range vals {
			if v > vals[best] {
				best = j
			}
		}
		sum += vals[best]
		vals = append(vals[:best], vals[best+1:]...)
	}
	return sum
}

func TestDenseFeaturesStandardized(t *testing.T) {
	d, _ := New(smallSpec())
	var sum, sumsq, n float64
	for it := 0; it < 10; it++ {
		b := d.Batch(it, 128)
		for _, v := range b.Dense.Data {
			sum += float64(v)
			sumsq += float64(v) * float64(v)
			n++
		}
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.1 || math.Abs(std-1) > 0.15 {
		t.Fatalf("dense features mean %v std %v, want ≈N(0,1)", mean, std)
	}
}

func TestUniqueHelperAgreement(t *testing.T) {
	// AvgUniquePerBatch over a single batch must equal a direct computation.
	d, _ := New(smallSpec())
	got := d.AvgUniquePerBatch(1, 1, 100)
	b0 := d.Batch(0, 100)
	uniq0, _ := embedding.Unique(b0.Sparse[1])
	if got != float64(len(uniq0)) {
		t.Fatalf("AvgUniquePerBatch over 1 batch = %v want %d", got, len(uniq0))
	}
}

func TestBatchIndicesMatchesBatch(t *testing.T) {
	d, _ := New(smallSpec())
	b := d.Batch(7, 64)
	for tt := range b.Sparse {
		got := d.BatchIndices(7, 64, tt)
		for s := range got {
			if got[s] != b.Sparse[tt][s] {
				t.Fatalf("table %d sample %d: BatchIndices %d != Batch %d", tt, s, got[s], b.Sparse[tt][s])
			}
		}
	}
}

// TestIndicesIntoMatchesBatchIndices: the reused-generator stream is
// BatchIndices and Batch(i, n).Sparse[t] for every table, over iterations
// and sizes that grow and shrink the buffer, on the single-valued and the
// multi-hot schema. One generator draws every table in turn, in an order
// that interleaves tables and iterations, so a stream can only depend on
// its own (iter, table) seed.
func TestIndicesIntoMatchesBatchIndices(t *testing.T) {
	multi := smallSpec()
	multi.MultiHot, multi.Seed = 3, 8
	for _, spec := range []Spec{smallSpec(), multi} {
		d, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		var g Generator
		var dst []int
		for k, size := range []int{64, 7, 128, 1, 33} {
			iter := 11*k + 3
			b := d.Batch(iter, size)
			tables := spec.NumTables()
			for j := range tables {
				tb := (j*7 + k) % tables // interleaved: not table order, and shifted per iteration
				dst = d.IndicesInto(&g, dst, iter, size, tb)
				if !equalInts(dst, d.BatchIndices(iter, size, tb)) || !equalInts(dst, b.Sparse[tb]) {
					t.Fatalf("%s: iter %d size %d table %d: IndicesInto disagrees with BatchIndices / Batch", spec.Name, iter, size, tb)
				}
			}
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d, _ := New(smallSpec())
	var g Generator
	dst := d.IndicesInto(&g, nil, 0, 128, 0)
	iter := 1000
	if allocs := testing.AllocsPerRun(100, func() {
		iter++
		dst = d.IndicesInto(&g, dst, iter, 128, iter%d.Spec.NumTables())
	}); allocs != 0 {
		t.Fatalf("IndicesInto over fresh streams allocated %v times per stream, want 0", allocs)
	}
}

func TestMultiHotBatches(t *testing.T) {
	spec := smallSpec()
	spec.MultiHot = 3
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.BagSize() != 3 {
		t.Fatalf("BagSize = %d", spec.BagSize())
	}
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := d.Batch(0, 16)
	if b.Size() != 16 {
		t.Fatalf("batch size %d", b.Size())
	}
	for tt, col := range b.Sparse {
		if len(col) != 16*3 {
			t.Fatalf("table %d has %d indices, want 48", tt, len(col))
		}
	}
	for s, o := range b.Offsets {
		if o != s*3 {
			t.Fatalf("offsets[%d] = %d want %d", s, o, s*3)
		}
	}
	// BatchIndices agrees with Batch under multi-hot too.
	got := d.BatchIndices(0, 16, 1)
	for i := range got {
		if got[i] != b.Sparse[1][i] {
			t.Fatal("multi-hot BatchIndices disagrees with Batch")
		}
	}
	// Labels remain binary and learnable-ish.
	if rate := d.LabelRate(10, 128); rate < 0.02 || rate > 0.9 {
		t.Fatalf("multi-hot label rate %v", rate)
	}
	if spec.MultiHot = -1; spec.Validate() == nil {
		t.Fatal("negative MultiHot accepted")
	}
}

// sameBatch reports the first difference between two batches, bit for bit.
func sameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Dense.Rows != want.Dense.Rows || got.Dense.Cols != want.Dense.Cols {
		t.Fatalf("%s: dense %dx%d, want %dx%d", what, got.Dense.Rows, got.Dense.Cols, want.Dense.Rows, want.Dense.Cols)
	}
	for i, v := range want.Dense.Data {
		if math.Float32bits(got.Dense.Data[i]) != math.Float32bits(v) {
			t.Fatalf("%s: dense[%d] = %v, want %v", what, i, got.Dense.Data[i], v)
		}
	}
	if len(got.Labels) != len(want.Labels) || len(got.Offsets) != len(want.Offsets) || len(got.Sparse) != len(want.Sparse) {
		t.Fatalf("%s: shape differs", what)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] || got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: sample %d label/offset differs", what, i)
		}
	}
	for tb := range want.Sparse {
		if len(got.Sparse[tb]) != len(want.Sparse[tb]) {
			t.Fatalf("%s: table %d has %d indices, want %d", what, tb, len(got.Sparse[tb]), len(want.Sparse[tb]))
		}
		for i, v := range want.Sparse[tb] {
			if got.Sparse[tb][i] != v {
				t.Fatalf("%s: table %d index %d = %d, want %d", what, tb, i, got.Sparse[tb][i], v)
			}
		}
	}
}

// TestBatchIntoMatchesBatchZeroAlloc: generating into one reused batch gives
// Batch's output bit for bit — across sizes that grow and shrink the
// buffers, on the single-valued and the multi-hot schema, and after the
// batch held another dataset's batch — and, once the batch has held one of
// this size, costs no allocation over iterations never generated before; at
// one worker and at the host's width, where executors draw the tables'
// streams and every executor's generator is bound by the first batch.
func TestBatchIntoMatchesBatchZeroAlloc(t *testing.T) {
	workertest.Each(t, func(workers int) {
		t.Logf("%d workers", workers)
		testBatchIntoMatchesBatchZeroAlloc(t)
	})
}

func testBatchIntoMatchesBatchZeroAlloc(t *testing.T) {
	multi := smallSpec()
	multi.MultiHot, multi.Seed = 3, 8
	var dst *Batch
	for _, spec := range []Spec{smallSpec(), multi} {
		d, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for k, size := range []int{64, 7, 128, 128, 1} {
			dst = d.BatchInto(dst, 40+k, size)
			sameBatch(t, spec.Name, dst, d.Batch(40+k, size))
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d, _ := New(smallSpec())
	dst = d.BatchInto(nil, 0, 128)
	for p := range dst.draw.gens {
		if dst.draw.gens[p].d != d {
			t.Fatalf("executor %d's generator is unbound after the first batch: it would be built in whichever later batch the executor first claims a stream", p)
		}
	}
	iter := 1000
	if allocs := testing.AllocsPerRun(100, func() { iter++; d.BatchInto(dst, iter, 128) }); allocs != 0 {
		t.Fatalf("BatchInto over fresh iterations allocated %v times per batch, want 0", allocs)
	}
	sameBatch(t, "after the allocation count", dst, d.Batch(iter, 128))
}
