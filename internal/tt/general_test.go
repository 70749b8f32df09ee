package tt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestGeneralShapeValidation(t *testing.T) {
	if _, err := NewGeneralShape(100, 16, 1, 4); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := NewGeneralShape(0, 16, 3, 4); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewGeneralShape(100, 16, 3, 0); err == nil {
		t.Fatal("zero rank accepted")
	}
	for _, d := range []int{2, 3, 4, 5} {
		s, err := NewGeneralShape(1000, 16, d, 4)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if err := s.validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if s.d() != d {
			t.Fatalf("D() = %d want %d", s.d(), d)
		}
		prod := 1
		for _, f := range s.ColFactors {
			prod *= f
		}
		if prod != 16 {
			t.Fatalf("d=%d col factors %v", d, s.ColFactors)
		}
	}
}

func TestGeneralFactorIndexRoundTrip(t *testing.T) {
	s, err := NewGeneralShape(5000, 16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2499, 4999} {
		idx := s.factorIndex(i)
		back := 0
		for k, f := range s.RowFactors {
			back = back*f + idx[k]
		}
		if back != i {
			t.Fatalf("FactorIndex(%d) = %v reconstructs to %d", i, idx, back)
		}
	}
}

func TestGeneralMatchesSpecializedD3(t *testing.T) {
	// A GeneralTable sharing the specialized 3-core Table's cores must
	// produce identical rows: the slice layouts are designed to coincide.
	spec := testShape(t)
	tbl3 := NewTable(spec, tensor.NewRNG(70), 0.1)
	gshape := GeneralShape{
		Rows:       spec.Rows,
		Dim:        spec.Dim,
		RowFactors: spec.RowFactors[:],
		ColFactors: spec.ColFactors[:],
		Ranks:      []int{spec.R1, spec.R2},
	}
	if err := gshape.validate(); err != nil {
		t.Fatal(err)
	}
	g := &GeneralTable{Shape: gshape, Cores: tbl3.Cores[:]}
	a := tbl3.Materialize()
	b := g.materialize()
	if d := a.MaxAbsDiff(b); d > 1e-5 {
		t.Fatalf("general d=3 deviates from specialized by %v", d)
	}
}

// TestGeneralUpdateMatchesSpecializedD3 holds Table.Update — the two-level
// backward, fused and unfused — against GeneralTable.Update at d = 3, an
// independent implementation of the same mini-batch SGD step (per-row chain
// rule into core-sized buffers, one sweep), over generated batches and a few
// compounding steps each.
func TestGeneralUpdateMatchesSpecializedD3(t *testing.T) {
	spec := testShape(t) // row factors {4,5,5}: prefix = idx/5, 19 of them below 95 rows
	r := tensor.NewRNG(75)
	draw := func(n int, from []int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from[r.Intn(len(from))]
		}
		return out
	}
	every := func(n, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * stride
		}
		return out
	}
	bags := func(n, size int) []int { return every((n+size-1)/size, size) }
	randIdx, randOff := randomBatch(r, spec.Rows, 20, 4)
	batches := []struct {
		name             string
		indices, offsets []int
	}{
		{"random", randIdx, randOff},
		{"duplicate-heavy", draw(60, []int{3, 17, 18, 94}), bags(60, 4)},
		{"single prefix", draw(12, []int{40, 41, 42, 43, 44}), bags(12, 3)},
		{"all prefixes distinct", every(19, 5), bags(19, 2)},
		{"one index", []int{7}, []int{0}},
		{"empty bags", []int{9, 9, 52, 80}, []int{0, 0, 2, 2, 3, 4, 4}},
		{"no indices", nil, []int{0, 0}},
	}
	for _, fused := range []bool{true, false} {
		for _, b := range batches {
			tbl := NewTable(spec, tensor.NewRNG(76), 0.1)
			tbl.Opts.FusedUpdate = fused
			gen := &GeneralTable{Shape: GeneralShape{
				Rows: spec.Rows, Dim: spec.Dim,
				RowFactors: spec.RowFactors[:], ColFactors: spec.ColFactors[:],
				Ranks: []int{spec.R1, spec.R2},
			}}
			for _, core := range tbl.Cores {
				gen.Cores = append(gen.Cores, core.Clone())
			}
			for step := 0; step < 3; step++ {
				dOut := tensor.New(len(b.offsets), spec.Dim)
				r.FillNormal(dOut.Data, 1)
				tbl.Lookup(b.indices, b.offsets)
				tbl.Update(b.indices, b.offsets, dOut, 0.05)
				gen.Update(b.indices, b.offsets, dOut, 0.05)
			}
			for k, core := range tbl.Cores {
				if d := core.MaxAbsDiff(gen.Cores[k]); d > 1e-5 {
					t.Errorf("fused=%v %s: core %d deviates from the general d=3 update by %v", fused, b.name, k, d)
				}
			}
		}
	}
}

func TestGeneralLookupMatchesMaterialize(t *testing.T) {
	for _, d := range []int{2, 4} {
		s, err := NewGeneralShape(300, 16, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGeneralTable(s, tensor.NewRNG(71), 0.1)
		mat := g.materialize()
		r := tensor.NewRNG(72)
		indices, offsets := randomBatch(r, 300, 12, 3)
		got := g.Lookup(indices, offsets)
		want := refLookup(mat, indices, offsets)
		if diff := got.MaxAbsDiff(want); diff > 1e-4 {
			t.Fatalf("d=%d lookup deviates by %v", d, diff)
		}
	}
}

func TestGeneralBackwardGradCheck(t *testing.T) {
	s, err := NewGeneralShape(120, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGeneralTable(s, tensor.NewRNG(73), 0.2)
	indices, offsets := []int{3, 77, 77, 110}, []int{0, 2}

	lossOf := func() float64 {
		out := g.Lookup(indices, offsets)
		var sum float64
		for _, v := range out.Data {
			sum += 0.5 * float64(v) * float64(v)
		}
		return sum
	}

	before := make([]*tensor.Matrix, s.d())
	for k := range before {
		before[k] = g.Cores[k].Clone()
	}
	out := g.Lookup(indices, offsets)
	g.Update(indices, offsets, out, 1.0) // lr=1: cores move by -grad

	const h = 1e-3
	for k := 0; k < s.d(); k++ {
		probes := []int{0, len(before[k].Data) / 2, len(before[k].Data) - 1}
		for _, pi := range probes {
			analytic := float64(before[k].Data[pi] - g.Cores[k].Data[pi])
			// Numeric gradient on a pristine copy.
			probe := &GeneralTable{Shape: s, Cores: make([]*tensor.Matrix, s.d())}
			for kk := range probe.Cores {
				probe.Cores[kk] = before[kk].Clone()
			}
			eval := func() float64 {
				outP := probe.Lookup(indices, offsets)
				var sum float64
				for _, v := range outP.Data {
					sum += 0.5 * float64(v) * float64(v)
				}
				return sum
			}
			probe.Cores[k].Data[pi] = before[k].Data[pi] + h
			lp := eval()
			probe.Cores[k].Data[pi] = before[k].Data[pi] - h
			lm := eval()
			numeric := (lp - lm) / (2 * h)
			if math.Abs(analytic-numeric) > 1e-2*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("core %d entry %d: analytic %v numeric %v", k, pi, analytic, numeric)
			}
		}
	}
	_ = lossOf
}

func TestGeneralCompressionImprovesWithD(t *testing.T) {
	// Deeper factorizations compress large tables harder (at equal rank) —
	// the reason TT-Rec supports d = 4.
	s3, err := NewGeneralShape(1_000_000, 64, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := NewGeneralShape(1_000_000, 64, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s4.CompressionRatio() <= s3.CompressionRatio() {
		t.Fatalf("d=4 ratio %.0f not above d=3 ratio %.0f", s4.CompressionRatio(), s3.CompressionRatio())
	}
}

func TestGeneralTrainingConverges(t *testing.T) {
	s, err := NewGeneralShape(200, 16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGeneralTable(s, tensor.NewRNG(74), 0.1)
	r := tensor.NewRNG(75)
	target := tensor.New(1, 16)
	r.FillUniform(target.Data, 0.5)
	indices, offsets := []int{5, 90, 150}, []int{0, 1, 2}

	lossAt := func() float64 {
		out := g.Lookup(indices, offsets)
		var sum float64
		for i, v := range out.Data {
			d := float64(v) - float64(target.Data[i%16])
			sum += d * d
		}
		return sum
	}
	initial := lossAt()
	for step := 0; step < 1200; step++ {
		out := g.Lookup(indices, offsets)
		dOut := tensor.New(out.Rows, out.Cols)
		for i := range out.Data {
			dOut.Data[i] = 2 * (out.Data[i] - target.Data[i%16])
		}
		g.Update(indices, offsets, dOut, 0.02)
	}
	if final := lossAt(); final > initial*0.1 {
		t.Fatalf("d=4 training did not converge: %v -> %v", initial, final)
	}
}

func TestGeneralValidationPanics(t *testing.T) {
	s, _ := NewGeneralShape(50, 8, 3, 2)
	g := NewGeneralTable(s, tensor.NewRNG(76), 0.1)
	for _, c := range []func(){
		func() { g.Lookup([]int{1}, nil) },
		func() { g.Lookup([]int{50}, []int{0}) },
		func() { g.lookupRow(-1, make([]float32, 8)) },
		func() { g.lookupRow(0, make([]float32, 3)) },
		func() { g.Update([]int{1}, []int{0}, tensor.New(2, 8), 0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid general-table call did not panic")
				}
			}()
			c()
		}()
	}
}

// Property: d-core lookup equals materialized reference for random d/shapes.
func TestQuickGeneralLookupAgainstMaterialized(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		d := 2 + r.Intn(3)
		dims := []int{8, 16, 24}
		dim := dims[r.Intn(len(dims))]
		rows := 20 + r.Intn(150)
		s, err := NewGeneralShape(rows, dim, d, 1+r.Intn(4))
		if err != nil {
			return true
		}
		g := NewGeneralTable(s, tensor.NewRNG(seed+1), 0.1)
		mat := g.materialize()
		indices, offsets := randomBatch(r, rows, 1+r.Intn(6), 3)
		got := g.Lookup(indices, offsets)
		want := refLookup(mat, indices, offsets)
		return got.MaxAbsDiff(want) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
