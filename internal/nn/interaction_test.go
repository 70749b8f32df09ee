package nn

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/workertest"
)

// interactionShapes are the generated shapes of the interaction tests: one
// table and the Criteo 26, widths on both sides of the 8-lane vector and of
// the NT kernels' k = 8 switch.
var interactionShapes = []struct{ dim, tables int }{
	{1, 1}, {7, 5}, {8, 26}, {33, 26}, {64, 26}, {64, 1},
}

// refInteraction is the layer written per pair in float64: for sample s of
// the stacked features z[i] (dense first), out = [z[0], z[i]·z[j] for i > j
// row by row] and, given dy, dz[i] = Σ_j dy(i,j)·z[j] (+ dy[:dim] for i = 0).
func refInteraction(dim int, z [][]float32, dy []float32) (out []float64, dz [][]float64) {
	for _, v := range z[0] {
		out = append(out, float64(v))
	}
	dz = make([][]float64, len(z))
	for i := range dz {
		dz[i] = make([]float64, dim)
	}
	for c := 0; c < dim && dy != nil; c++ {
		dz[0][c] = float64(dy[c])
	}
	for i := 1; i < len(z); i++ {
		for j := 0; j < i; j++ {
			var dot float64
			for c := 0; c < dim; c++ {
				dot += float64(z[i][c]) * float64(z[j][c])
			}
			if dy != nil {
				g := float64(dy[len(out)])
				for c := 0; c < dim; c++ {
					dz[i][c] += g * float64(z[j][c])
					dz[j][c] += g * float64(z[i][c])
				}
			}
			out = append(out, dot)
		}
	}
	return out, dz
}

// TestInteractionMatchesPerPairReference: Forward and Backward against the
// per-pair float64 reference, and the reference's gradient against central
// differences of its own forward, over the generated shapes — batch 5 and
// then batch 1 on the same layer, so the second pass runs on scratch and
// layer-owned results the first one left behind — at one worker and at the
// host's width, where the batch splits over executors.
func TestInteractionMatchesPerPairReference(t *testing.T) {
	workertest.Each(t, func(int) { testInteractionMatchesPerPairReference(t) })
}

func testInteractionMatchesPerPairReference(t *testing.T) {
	rng := tensor.NewRNG(12)
	random := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		rng.FillUniform(m.Data, 1)
		return m
	}
	for _, sh := range interactionShapes {
		it := NewInteraction(sh.dim, sh.tables)
		for _, batch := range []int{5, 1} {
			name := fmt.Sprintf("dim %d tables %d batch %d", sh.dim, sh.tables, batch)
			dense, embs := random(batch, sh.dim), make([]*tensor.Matrix, sh.tables)
			for i := range embs {
				embs[i] = random(batch, sh.dim)
			}
			dy := random(batch, it.OutputDim())
			out := it.Forward(dense, embs)
			dDense, dEmbs := it.Backward(dy)
			if out.Rows != batch || dDense.Rows != batch || dEmbs[sh.tables-1].Rows != batch {
				t.Fatalf("%s: result rows %d/%d/%d", name, out.Rows, dDense.Rows, dEmbs[sh.tables-1].Rows)
			}
			for s := 0; s < batch; s++ {
				z := [][]float32{dense.Row(s)}
				for _, e := range embs {
					z = append(z, e.Row(s))
				}
				wantOut, wantDz := refInteraction(sh.dim, z, dy.Row(s))
				for c, w := range wantOut {
					if got := float64(out.At(s, c)); math.Abs(got-w) > 1e-4*math.Max(1, math.Abs(w)) {
						t.Fatalf("%s: out[%d][%d] = %v want %v", name, s, c, got, w)
					}
				}
				for i, w := range wantDz {
					got := dDense.Row(s)
					if i > 0 {
						got = dEmbs[i-1].Row(s)
					}
					for c := range w {
						if math.Abs(float64(got[c])-w[c]) > 1e-4*math.Max(1, math.Abs(w[c])) {
							t.Fatalf("%s: d(feature %d)[%d][%d] = %v want %v", name, i, s, c, got[c], w[c])
						}
					}
				}
				// L = dy·out is linear in out, so dL/dz is what Backward returns.
				loss := func() (l float64) {
					o, _ := refInteraction(sh.dim, z, nil)
					for c, v := range o {
						l += float64(dy.At(s, c)) * v
					}
					return l
				}
				for _, i := range []int{0, len(z) / 2, len(z) - 1} {
					c := (s + i) % sh.dim
					if num := numericGrad(z[i], c, loss); math.Abs(num-wantDz[i][c]) > 1e-2*math.Max(1, math.Abs(num)) {
						t.Fatalf("%s: reference d(feature %d)[%d] = %v, central difference %v", name, i, c, wantDz[i][c], num)
					}
				}
			}
		}
	}
}

func TestInteractionBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, errUsage) {
			t.Fatalf("Backward before Forward: recovered %v, want errUsage", err)
		}
	}()
	it := NewInteraction(4, 2)
	it.Backward(tensor.New(1, it.OutputDim()))
}

// TestInteractionSplitBitForBitZeroAlloc: at four workers Forward and
// Backward split the batch's lane blocks into four parts — one short block
// at 1, 7, 9, 33 and 129 samples, fewer blocks than workers below 25, uneven
// parts at 33, 128 and 129 — and must write exactly the bits of the
// one-worker pass; after one warm-up pass at a width, a pass allocates
// nothing.
func TestInteractionSplitBitForBitZeroAlloc(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.Workers())
	const dim, tables = 16, 26
	rng := tensor.NewRNG(21)
	random := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		rng.FillNormal(m.Data, 1)
		return m
	}
	for _, batch := range []int{1, 7, 8, 9, 33, 128, 129} {
		dense, embs := random(batch, dim), make([]*tensor.Matrix, tables)
		for i := range embs {
			embs[i] = random(batch, dim)
		}
		dy := random(batch, NewInteraction(dim, tables).OutputDim())
		var want []*tensor.Matrix
		for _, workers := range []int{1, 4} {
			tensor.SetMaxWorkers(workers)
			it := NewInteraction(dim, tables)
			var got []*tensor.Matrix
			pass := func() {
				out := it.Forward(dense, embs)
				dDense, dEmbs := it.Backward(dy)
				got = append(append(got[:0], out, dDense), dEmbs...)
			}
			pass()
			if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
				t.Fatalf("batch %d: a Forward+Backward pass allocated %v times at %d workers", batch, allocs, workers)
			}
			if want == nil {
				for _, m := range got {
					want = append(want, tensor.FromSlice(m.Rows, m.Cols, append([]float32(nil), m.Data...)))
				}
				continue
			}
			for k, m := range got {
				for i, v := range m.Data {
					if math.Float32bits(v) != math.Float32bits(want[k].Data[i]) {
						t.Fatalf("batch %d, result %d, element %d: %v at %d workers, %v at one", batch, k, i, v, workers, want[k].Data[i])
					}
				}
			}
		}
	}
}
