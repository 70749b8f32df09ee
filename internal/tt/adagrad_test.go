package tt

import (
	"testing"

	"repro/internal/tensor"
)

func TestAdagradEnableIdempotent(t *testing.T) {
	tbl := newTestTable(t, 60)
	if tbl.AdagradEnabled() {
		t.Fatal("Adagrad on by default")
	}
	tbl.EnableAdagrad()
	acc := tbl.AdagradAccum(0)
	tbl.EnableAdagrad() // no-op
	if tbl.AdagradAccum(0) != acc {
		t.Fatal("EnableAdagrad reallocated state")
	}
}

func TestAdagradFusedMatchesUnfusedDisjointSlices(t *testing.T) {
	shape := testShape(t)
	idxOf := func(i1, i2, i3 int) int { return (i1*5+i2)*5 + i3 }
	indices := []int{idxOf(0, 0, 0), idxOf(1, 1, 1), idxOf(2, 2, 2)}
	offsets := []int{0, 2}

	run := func(fused bool) *Table {
		tbl := NewTable(shape, tensor.NewRNG(61), 0.1)
		tbl.EnableAdagrad()
		tbl.Opts = Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: fused}
		out, cache := tbl.forward(indices, offsets)
		tbl.backward(cache, out, 0.1)
		return tbl
	}
	fused, unfused := run(true), run(false)
	for k := 0; k < Dims; k++ {
		if d := fused.Cores[k].MaxAbsDiff(unfused.Cores[k]); d > 1e-6 {
			t.Fatalf("core %d fused/unfused Adagrad differ by %v", k, d)
		}
		if d := fused.AdagradAccum(k).MaxAbsDiff(unfused.AdagradAccum(k)); d > 1e-6 {
			t.Fatalf("core %d accumulators differ by %v", k, d)
		}
	}
}

func TestAdagradStepsShrink(t *testing.T) {
	tbl := newTestTable(t, 62)
	tbl.EnableAdagrad()
	indices, offsets := []int{5}, []int{0}
	dOut := tensor.New(1, tbl.Dim())
	for i := range dOut.Data {
		dOut.Data[i] = 1
	}

	norm := func(a, b [Dims]*tensor.Matrix) float64 {
		var s float64
		for k := 0; k < Dims; k++ {
			d := a[k].MaxAbsDiff(b[k])
			s += float64(d)
		}
		return s
	}
	snap := func() [Dims]*tensor.Matrix {
		var out [Dims]*tensor.Matrix
		for k := 0; k < Dims; k++ {
			out[k] = tbl.Cores[k].Clone()
		}
		return out
	}
	s0 := snap()
	_, cache := tbl.forward(indices, offsets)
	tbl.backward(cache, dOut, 0.5)
	s1 := snap()
	// Run several more steps so accumulators grow, then compare step sizes.
	for i := 0; i < 5; i++ {
		_, cache = tbl.forward(indices, offsets)
		tbl.backward(cache, dOut, 0.5)
	}
	s2 := snap()
	_, cache = tbl.forward(indices, offsets)
	tbl.backward(cache, dOut, 0.5)
	s3 := snap()
	if norm(s2, s3) >= norm(s0, s1) {
		t.Fatalf("Adagrad step did not shrink: first %v later %v", norm(s0, s1), norm(s2, s3))
	}
}

func TestAdagradConverges(t *testing.T) {
	tbl := newTestTable(t, 63)
	tbl.EnableAdagrad()
	r := tensor.NewRNG(64)
	target := tensor.New(1, tbl.Dim())
	r.FillUniform(target.Data, 0.5)
	indices, offsets := []int{3, 17, 42}, []int{0, 1, 2}

	lossAt := func() float64 {
		out, _ := tbl.forward(indices, offsets)
		var s float64
		for i, v := range out.Data {
			d := float64(v) - float64(target.Data[i%tbl.Dim()])
			s += d * d
		}
		return s
	}
	initial := lossAt()
	for step := 0; step < 1500; step++ {
		out, cache := tbl.forward(indices, offsets)
		dOut := tensor.New(out.Rows, out.Cols)
		for i := range out.Data {
			dOut.Data[i] = 2 * (out.Data[i] - target.Data[i%tbl.Dim()])
		}
		tbl.backward(cache, dOut, 0.05)
	}
	if final := lossAt(); final > initial*0.1 {
		t.Fatalf("Adagrad training did not converge: %v -> %v", initial, final)
	}
}
