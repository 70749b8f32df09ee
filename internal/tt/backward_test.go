package tt

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// lossOf computes 0.5·Σ out² for a batch so that dLoss/dOut = out.
func lossOf(tbl *Table, indices, offsets []int) float64 {
	out := tbl.Lookup(indices, offsets)
	var s float64
	for _, v := range out.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

// TestBackwardGradCheck verifies the unfused, aggregated backward pass
// against numeric differentiation of every core.
func TestBackwardGradCheck(t *testing.T) {
	tbl := newTestTable(t, 20)
	tbl.Opts = Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: false}

	indices := []int{0, 7, 7, 23, 94, 50}
	offsets := []int{0, 2, 4}
	const lr = 1.0 // cores move by exactly -grad

	before := [Dims]*tensor.Matrix{}
	for k := 0; k < Dims; k++ {
		before[k] = tbl.Cores[k].Clone()
	}
	tbl.Update(indices, offsets, tbl.Lookup(indices, offsets), lr)

	const h = 1e-3
	for k := 0; k < Dims; k++ {
		probes := []int{0, len(before[k].Data) / 2, len(before[k].Data) - 1}
		for _, idx := range probes {
			// Analytic gradient = (before - after)/lr.
			analytic := float64(before[k].Data[idx]-tbl.Cores[k].Data[idx]) / float64(lr)
			// Numeric gradient on a pristine copy of the table.
			probe := &Table{Shape: tbl.Shape, Opts: tbl.Opts}
			for kk := 0; kk < Dims; kk++ {
				probe.Cores[kk] = before[kk].Clone()
			}
			probe.Cores[k].Data[idx] = before[k].Data[idx] + h
			lp := lossOf(probe, indices, offsets)
			probe.Cores[k].Data[idx] = before[k].Data[idx] - h
			lm := lossOf(probe, indices, offsets)
			numeric := (lp - lm) / (2 * h)
			if math.Abs(analytic-numeric) > 1e-2*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("core %d entry %d: analytic %v numeric %v", k, idx, analytic, numeric)
			}
		}
	}
}

// TestBackwardAggregationEquivalence: with the unfused update, aggregated
// and per-occurrence gradients must produce the same core updates (the
// gradient is linear in the output gradient rows).
func TestBackwardAggregationEquivalence(t *testing.T) {
	serialWorkers(t)
	r := tensor.NewRNG(21)
	indices, offsets := randomBatch(r, 95, 12, 4)

	makeTbl := func(agg bool) *Table {
		tbl := newTestTable(t, 22)
		tbl.Opts = Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: agg, FusedUpdate: false}
		return tbl
	}
	a, b := makeTbl(true), makeTbl(false)
	dOut := tensor.New(len(offsets), a.Dim())
	r.FillUniform(dOut.Data, 1)
	a.Update(indices, offsets, dOut, 0.1)
	b.Update(indices, offsets, dOut, 0.1)
	for k := 0; k < Dims; k++ {
		if d := a.Cores[k].MaxAbsDiff(b.Cores[k]); d > 1e-4 {
			t.Fatalf("core %d differs by %v between aggregated and per-occurrence backward", k, d)
		}
	}
}

// sharedSliceBatches generates batches over testShape's 95 rows (factors
// {4,5,5}): with a few dozen occurrences per batch, duplicate indices and
// shared i₁, i₂, i₃ and (i₁,i₂) prefixes are the rule, not the exception.
func sharedSliceBatches(seed uint64, steps int) (indices, offsets [][]int) {
	r := tensor.NewRNG(seed)
	for s := 0; s < steps; s++ {
		idx, off := randomBatch(r, 95, 12, 4)
		if s%2 == 1 {
			// Force an exact duplicate and a prefix-mate on top of chance.
			idx[len(idx)-1] = idx[0]
			idx[len(idx)-2] = idx[0] - idx[0]%5 + (idx[0]+1)%5
		}
		indices, offsets = append(indices, idx), append(offsets, off)
	}
	return indices, offsets
}

// trainSteps runs Lookup/Update over the batches with the L = ½Σout²
// gradient and returns the table.
func trainSteps(tbl *Table, indices, offsets [][]int, lr float32) *Table {
	for s := range indices {
		out := tbl.Lookup(indices[s], offsets[s])
		tbl.Update(indices[s], offsets[s], out.Clone(), lr)
	}
	return tbl
}

// backwardConfigs are the InAdvanceAgg configurations the equivalence tests
// cover: the full Eff-TT table, aggregation over a per-occurrence forward,
// and no reuse buffer at all (P₁₂ computed once per prefix in Backward).
var backwardConfigs = []struct {
	name string
	opts Options
}{
	{"eff", EffOptions()},
	{"no-dedup", Options{ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: true}},
	{"no-reuse-buffer", Options{InAdvanceAgg: true, FusedUpdate: true}},
}

// TestBackwardFusedMatchesUnfused: the two-level backward reads every core
// slice before writing it, so the fused update is exact mini-batch SGD —
// after several steps on batches full of duplicates and shared slices its
// cores equal the unfused path's bit for bit, for SGD and Adagrad: G₂'s fused
// SGD apply is the dG₂ product's epilogue, fma(−lr, dG₂, G₂), the rounding of
// the unfused path's Axpy over its gradient buffer.
func TestBackwardFusedMatchesUnfused(t *testing.T) {
	indices, offsets := sharedSliceBatches(23, 6)
	for _, cfg := range backwardConfigs {
		for _, adagrad := range []bool{false, true} {
			run := func(fused bool) *Table {
				tbl := newTestTable(t, 24)
				tbl.Opts = cfg.opts
				tbl.Opts.FusedUpdate = fused
				if adagrad {
					tbl.EnableAdagrad()
				}
				return trainSteps(tbl, indices, offsets, 0.05)
			}
			fused, unfused := run(true), run(false)
			for k := 0; k < Dims; k++ {
				for i, v := range fused.Cores[k].Data {
					if w := unfused.Cores[k].Data[i]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("%s adagrad=%v: core %d element %d is %v fused, %v unfused", cfg.name, adagrad, k, i, v, w)
					}
				}
			}
		}
	}
}

// TestBackwardWorkerCountInvariant: every core slice and scratch row of the
// two-level backward has one writer and a fixed summation order, so the
// trained cores are bit-identical for 1, 2 and 4 executors.
func TestBackwardWorkerCountInvariant(t *testing.T) {
	old := tensor.Workers()
	defer tensor.SetMaxWorkers(old)
	indices, offsets := sharedSliceBatches(31, 6)
	for _, cfg := range backwardConfigs {
		for _, fused := range []bool{true, false} {
			run := func(workers int, adagrad bool) *Table {
				tensor.SetMaxWorkers(workers)
				tbl := newTestTable(t, 32)
				tbl.Opts = cfg.opts
				tbl.Opts.FusedUpdate = fused
				if adagrad {
					tbl.EnableAdagrad()
				}
				return trainSteps(tbl, indices, offsets, 0.05)
			}
			for _, adagrad := range []bool{false, true} {
				ref := run(1, adagrad)
				for _, workers := range []int{2, 4} {
					got := run(workers, adagrad)
					for k := 0; k < Dims; k++ {
						if d := got.Cores[k].MaxAbsDiff(ref.Cores[k]); d != 0 {
							t.Errorf("%s fused=%v adagrad=%v: core %d differs by %v between 1 and %d workers", cfg.name, fused, adagrad, k, d, workers)
						}
					}
				}
			}
		}
	}
}

// TestBackwardTwoLevelMatchesPerOccurrence: the Eff-TT backward (two
// aggregation levels, fused) computes the same mini-batch gradient as the
// per-occurrence baseline accumulated into gradient buffers.
func TestBackwardTwoLevelMatchesPerOccurrence(t *testing.T) {
	serialWorkers(t)
	indices, offsets := sharedSliceBatches(33, 1)
	dOut := tensor.New(len(offsets[0]), 12)
	tensor.NewRNG(34).FillUniform(dOut.Data, 1)
	base := newTestTable(t, 35)
	base.Opts = NaiveOptions()
	base.Update(indices[0], offsets[0], dOut, 0.1)
	for _, cfg := range backwardConfigs {
		tbl := newTestTable(t, 35)
		tbl.Opts = cfg.opts
		tbl.Update(indices[0], offsets[0], dOut, 0.1)
		for k := 0; k < Dims; k++ {
			if d := tbl.Cores[k].MaxAbsDiff(base.Cores[k]); d > 1e-4 {
				t.Errorf("%s: core %d differs by %v from the per-occurrence baseline", cfg.name, k, d)
			}
		}
	}
}

// TestBackwardFusedConverges: fused updates through the parallel two-level
// backward drive a regression objective down.
func TestBackwardFusedConverges(t *testing.T) {
	tbl := newTestTable(t, 24)
	tbl.Opts = EffOptions()
	r := tensor.NewRNG(25)
	target := tensor.New(1, tbl.Dim())
	r.FillUniform(target.Data, 0.5)
	indices, offsets := []int{3, 17, 42}, []int{0, 1, 2}

	lossAt := func() float64 {
		out := tbl.Lookup(indices, offsets)
		var s float64
		for i, v := range out.Data {
			d := float64(v) - float64(target.Data[i%tbl.Dim()])
			s += d * d
		}
		return s
	}
	initial := lossAt()
	for step := 0; step < 2500; step++ {
		out := tbl.Lookup(indices, offsets)
		dOut := tensor.New(out.Rows, out.Cols)
		for i := range out.Data {
			dOut.Data[i] = 2 * (out.Data[i] - target.Data[i%tbl.Dim()])
		}
		tbl.Update(indices, offsets, dOut, 0.01)
	}
	final := lossAt()
	if final > initial*0.1 {
		t.Fatalf("fused training did not converge: %v -> %v", initial, final)
	}
}

// TestBackwardMatchesEmbeddingGradient: the gradient that reaches the cores
// corresponds to the sparse embedding-table gradient. We verify via the
// materialized table: a TT update with small lr moves the materialized rows
// approximately like the dense table update (first-order in lr).
func TestBackwardMatchesEmbeddingGradientFirstOrder(t *testing.T) {
	tbl := newTestTable(t, 26)
	tbl.Opts = Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: false}
	indices, offsets := []int{10, 20}, []int{0, 1}

	matBefore := tbl.Materialize()
	dOut := tensor.New(len(offsets), tbl.Dim())
	rng := tensor.NewRNG(27)
	rng.FillUniform(dOut.Data, 1)

	const lr = 1e-4
	tbl.Update(indices, offsets, dOut, lr)
	matAfter := tbl.Materialize()

	// Rows 10 and 20 should each move by ≈ -lr · J·Jᵀ-weighted gradient;
	// directionally, the inner product of (after-before) with dOut must be
	// negative (descent) and rows untouched by the batch must move ~0.
	var moved, descent float64
	for s, idx := range indices {
		for j := 0; j < tbl.Dim(); j++ {
			delta := float64(matAfter.At(idx, j) - matBefore.At(idx, j))
			moved += math.Abs(delta)
			descent += delta * float64(dOut.At(s, j))
		}
	}
	if moved == 0 {
		t.Fatal("touched rows did not move")
	}
	if descent >= 0 {
		t.Fatalf("update is not a descent direction: %v", descent)
	}
	// An untouched row sharing no TT slice with the batch stays fixed.
	// indices 10=(0,2,0), 20=(0,4,0): choose 94=(3,3,4).
	for j := 0; j < tbl.Dim(); j++ {
		if d := math.Abs(float64(matAfter.At(94, j) - matBefore.At(94, j))); d > 1e-7 {
			t.Fatalf("slice-disjoint row moved by %v", d)
		}
	}
}

func TestBackwardValidation(t *testing.T) {
	tbl := newTestTable(t, 28)
	tbl.Lookup([]int{1}, []int{0})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil cache did not panic")
			}
		}()
		tbl.backward(nil, tensor.New(1, tbl.Dim()), 0.1)
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("bad grad shape did not panic")
		}
	}()
	tbl.backward(tbl.arena, tensor.New(2, tbl.Dim()), 0.1)
}

// TestBackwardNoPrefixBufferPath exercises backward when the forward pass
// ran without the reuse buffer (prefixes recomputed on the fly).
func TestBackwardNoPrefixBufferPath(t *testing.T) {
	run := func(reuse bool) *Table {
		tbl := newTestTable(t, 29)
		tbl.Opts = Options{DedupIndices: true, ReusePrefix: reuse, InAdvanceAgg: true, FusedUpdate: false}
		indices, offsets := []int{5, 6, 7, 5}, []int{0, 2}
		tbl.Update(indices, offsets, tbl.Lookup(indices, offsets), 0.1)
		return tbl
	}
	a, b := run(true), run(false)
	for k := 0; k < Dims; k++ {
		if d := a.Cores[k].MaxAbsDiff(b.Cores[k]); d > 1e-4 {
			t.Fatalf("core %d differs by %v between reuse and no-reuse backward", k, d)
		}
	}
}

// TestBackwardAggWithoutForwardDedup: aggregation enabled on a forward pass
// that ran per occurrence (unique indices rebuilt in Backward, reuse-buffer
// rows recovered through the occurrence→unique map).
func TestBackwardAggWithoutForwardDedup(t *testing.T) {
	ref := newTestTable(t, 30)
	ref.Opts = Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: false}

	alt := newTestTable(t, 30)
	alt.Opts = Options{DedupIndices: false, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: false}

	indices, offsets := []int{8, 8, 9, 33}, []int{0, 2}
	dOut := ref.Lookup(indices, offsets).Clone()
	ref.Update(indices, offsets, dOut, 0.1)
	alt.Update(indices, offsets, dOut, 0.1)
	for k := 0; k < Dims; k++ {
		if d := ref.Cores[k].MaxAbsDiff(alt.Cores[k]); d > 1e-4 {
			t.Fatalf("core %d differs by %v", k, d)
		}
	}
}

// TestGroupsSort: the counting sort is stable and keeps empty keys empty.
func TestGroupsSort(t *testing.T) {
	key := []int{3, 0, 3, 1, 3, 0, 5}
	var g groups
	g.build(6, key, 0)
	want := [][]int{{1, 5}, {3}, {}, {0, 2, 4}, {}, {6}}
	for k, w := range want {
		got := g.of(k)
		if len(got) != len(w) {
			t.Fatalf("key %d: items %v want %v", k, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("key %d: items %v want %v", k, got, w)
			}
		}
	}
}

// TestSortByI2: the stacking sort groups the unique prefixes by i₂ with
// first-occurrence order kept inside a group, leaves unused i₂ empty, and
// renumbers the work items' ids so each still addresses its own prefix.
func TestSortByI2(t *testing.T) {
	const m2 = 5
	uniq := []int{13, 4, 8, 3, 24, 9, 14} // i₂ = 3, 4, 3, 3, 4, 4, 4; i₂ 0, 1, 2 unused
	ids := []int{0, 1, 2, 0, 3, 4, 5, 6, 2}
	prefixOf := make([]int, len(ids))
	for w, u := range ids {
		prefixOf[w] = uniq[u]
	}
	var g groups
	g.sortByI2(m2, uniq, ids, 0)
	for i, want := range []int{13, 8, 3, 4, 24, 9, 14} {
		if uniq[i] != want {
			t.Fatalf("sorted prefixes %v: position %d want %d", uniq, i, want)
		}
	}
	for i2, want := range []int{0, 0, 0, 0, 3, 7} {
		if g.start[i2] != want {
			t.Fatalf("group starts %v: i₂ %d want %d", g.start[:m2+1], i2, want)
		}
	}
	for w, u := range ids {
		if uniq[u] != prefixOf[w] {
			t.Fatalf("work item %d addresses prefix %d after the sort, %d before", w, uniq[u], prefixOf[w])
		}
	}
	g.sortByI2(m2, nil, nil, 0) // an empty batch leaves every group empty
	if g.start[m2] != 0 {
		t.Fatalf("empty sort: group starts %v", g.start[:m2+1])
	}
}
