package tt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// stackedBatches are generated batches over testShape (row factors {4,5,5},
// index = (i₁·5+i₂)·5+i₃) that put the per-G₂-slice stacking at its edges.
func stackedBatches() []struct {
	name             string
	indices, offsets []int
} {
	random, randomOff := sharedSliceBatches(41, 1)
	return []struct {
		name             string
		indices, offsets []int
	}{
		{"one-i2-group", []int{15, 42, 69, 91, 40, 15, 18}, []int{0, 2, 4, 6}},
		{"distinct-i2", []int{0, 6, 12, 43, 74}, []int{0, 1, 3}},
		{"one-index-repeated", []int{42, 42, 42, 42}, []int{0, 1}},
		{"empty-bags", []int{7, 32, 33}, []int{0, 0, 1, 1, 3, 3}},
		{"random", random[0], randomOff[0]},
	}
}

// TestStackedPrefixBufMatchesComputePrefix: every reuse-buffer row the
// stacked fill produces has the bits of its own G₁[i₁]·G₂[i₂] product, for
// fresh and arena caches, with and without index dedup, a second batch on
// the same arena included.
func TestStackedPrefixBufMatchesComputePrefix(t *testing.T) {
	for _, dedup := range []bool{true, false} {
		tbl := newTestTable(t, 42)
		tbl.Opts = Options{DedupIndices: dedup, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: true}
		want := make([]float32, tbl.Shape.prefixSize())
		check := func(name string, c *forwardCache) {
			t.Helper()
			for w, idx := range c.WorkIdx {
				i1, i2, _ := tbl.Shape.factorIndex(idx)
				tbl.computePrefix(i1, i2, want)
				for i, v := range c.PrefixBuf.Row(c.PrefixSlots[w]) {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("%s dedup=%v: work item %d (index %d) element %d = %v want %v", name, dedup, w, idx, i, v, want[i])
					}
				}
			}
		}
		for _, b := range stackedBatches() {
			tbl.Lookup(b.indices, b.offsets)
			check(b.name, tbl.arena)
		}
	}
}

// TestStackedFillWorkerCountInvariant runs the fill past the dispatch gate
// (rank 64, ~160 unique prefixes: the parallel path the small tables above
// never reach): pooled rows and reuse-buffer rows are bit-identical for 1, 2
// and 4 executors, and each buffer row is its own product.
func TestStackedFillWorkerCountInvariant(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.Workers())
	shape, err := NewShape(4096, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(shape, tensor.NewRNG(43), 0)
	indices, offsets := randomBatch(tensor.NewRNG(44), shape.Rows, 128, 3)
	var ref, refBuf *tensor.Matrix
	for _, workers := range []int{1, 2, 4} {
		tensor.SetMaxWorkers(workers)
		out, c := tbl.Lookup(indices, offsets), tbl.arena
		if !tensor.Parallel(len(c.prefixes)*shape.R1*shape.prefixSize()) && workers > 1 {
			t.Fatalf("%d prefixes do not reach the dispatch gate", len(c.prefixes))
		}
		if ref == nil {
			ref, refBuf = out.Clone(), c.PrefixBuf.Clone()
			want := make([]float32, shape.prefixSize())
			for u, pfx := range c.prefixes {
				tbl.computePrefix(pfx/shape.RowFactors[1], pfx%shape.RowFactors[1], want)
				for i, v := range c.PrefixBuf.Row(u) {
					if v != want[i] {
						t.Fatalf("reuse-buffer row %d element %d = %v, its own product gives %v", u, i, v, want[i])
					}
				}
			}
			continue
		}
		if d := out.MaxAbsDiff(ref); d != 0 {
			t.Errorf("pooled rows differ by %v between 1 and %d workers", d, workers)
		}
		if d := c.PrefixBuf.MaxAbsDiff(refBuf); d != 0 {
			t.Errorf("reuse buffer differs by %v between 1 and %d workers", d, workers)
		}
	}
}

// refCoreGrads is the materialised-table gradient in float64: every index
// occurrence of sample s adds dOut[s] to its table row's gradient, and a row
// gradient g reaches the cores through the definition
// row[a,b,c] = Σ G₁[i₁][a,r₁]·G₂[i₂][r₁,b,r₂]·G₃[i₃][r₂,c].
func refCoreGrads(tbl *Table, indices, offsets []int, dOut *tensor.Matrix) [Dims][]float64 {
	n, r1n, r2n := tbl.Shape.ColFactors, tbl.Shape.R1, tbl.Shape.R2
	var grads [Dims][]float64
	for k := range grads {
		grads[k] = make([]float64, len(tbl.Cores[k].Data))
	}
	sz := tbl.Shape.sliceSizes()
	for s := range offsets {
		end := len(indices)
		if s+1 < len(offsets) {
			end = offsets[s+1]
		}
		for _, idx := range indices[offsets[s]:end] {
			i1, i2, i3 := tbl.Shape.factorIndex(idx)
			g1, g2, g3 := tbl.Slice1(i1), tbl.Slice2(i2), tbl.Slice3(i3)
			for a := 0; a < n[0]; a++ {
				for b := 0; b < n[1]; b++ {
					for c := 0; c < n[2]; c++ {
						g := float64(dOut.At(s, (a*n[1]+b)*n[2]+c))
						for r1 := 0; r1 < r1n; r1++ {
							for r2 := 0; r2 < r2n; r2++ {
								x1, x2, x3 := a*r1n+r1, r1*n[1]*r2n+b*r2n+r2, r2*n[2]+c
								v1, v2, v3 := float64(g1[x1]), float64(g2[x2]), float64(g3[x3])
								grads[0][i1*sz[0]+x1] += g * v2 * v3
								grads[1][i2*sz[1]+x2] += g * v1 * v3
								grads[2][i3*sz[2]+x3] += g * v1 * v2
							}
						}
					}
				}
			}
		}
	}
	return grads
}

// TestStackedBackwardWorkerCount is the differential oracle of the two-level
// backward on the generated batches: one step from identical cores, for every
// InAdvanceAgg configuration, fused and unfused, SGD and Adagrad, lands
// within the existing tolerances of the per-occurrence baseline and of the
// float64 materialised-table gradient pushed through the same update rule,
// and on bit-identical cores for 1, 2 and 4 executors.
func TestStackedBackwardWorkerCount(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.Workers())
	const lr = 0.05
	for _, b := range stackedBatches() {
		dOut := tensor.New(len(b.offsets), 12)
		tensor.NewRNG(45).FillUniform(dOut.Data, 1)
		step := func(opts Options, adagrad bool, workers int) *Table {
			tensor.SetMaxWorkers(workers)
			tbl := newTestTable(t, 46)
			tbl.Opts = opts
			if adagrad {
				tbl.EnableAdagrad()
			}
			tbl.Lookup(b.indices, b.offsets)
			tbl.Update(b.indices, b.offsets, dOut, lr)
			return tbl
		}
		before := newTestTable(t, 46)
		grads := refCoreGrads(before, b.indices, b.offsets, dOut)
		for _, adagrad := range []bool{false, true} {
			baseline := step(NaiveOptions(), adagrad, 1)
			for _, cfg := range backwardConfigs {
				for _, fused := range []bool{true, false} {
					name := fmt.Sprintf("%s %s fused=%v adagrad=%v", b.name, cfg.name, fused, adagrad)
					opts := cfg.opts
					opts.FusedUpdate = fused
					one := step(opts, adagrad, 1)
					for k := 0; k < Dims; k++ {
						if d := one.Cores[k].MaxAbsDiff(baseline.Cores[k]); d > 1e-4 {
							t.Errorf("%s: core %d differs by %v from the per-occurrence baseline", name, k, d)
						}
						for i, g := range grads[k] {
							want := float64(before.Cores[k].Data[i]) - lr*g
							if adagrad && g != 0 {
								want = float64(before.Cores[k].Data[i]) - lr*g/math.Sqrt(g*g+adagradEps)
							}
							if d := math.Abs(float64(one.Cores[k].Data[i]) - want); d > 1e-4 {
								t.Fatalf("%s: core %d entry %d = %v, materialised-table gradient gives %v", name, k, i, one.Cores[k].Data[i], want)
							}
						}
					}
					for _, workers := range []int{2, 4} {
						got := step(opts, adagrad, workers)
						for k := 0; k < Dims; k++ {
							if d := got.Cores[k].MaxAbsDiff(one.Cores[k]); d != 0 {
								t.Errorf("%s: core %d differs by %v between 1 and %d workers", name, k, d, workers)
							}
						}
					}
				}
			}
		}
	}
}
