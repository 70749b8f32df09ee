package nn

import (
	"repro/internal/tensor"
)

// Interaction is the DLRM dot-product feature-interaction layer. For each
// sample it stacks the bottom-MLP output with the per-table embedding
// vectors, computes all pairwise dot products, and concatenates the strictly
// lower triangle of the Gram matrix after the original dense vector — exactly
// the reference DLRM "dot" interaction.
type Interaction struct {
	Dim       int // feature dimension shared by dense output and embeddings
	NumTables int // number of embedding vectors per sample

	dense *tensor.Matrix
	embs  []*tensor.Matrix

	// Layer-owned buffers, reused per step.
	out    *tensor.Matrix
	dDense *tensor.Matrix
	dEmbs  []*tensor.Matrix
}

// NewInteraction returns an interaction layer over numTables embeddings of
// width dim.
func NewInteraction(dim, numTables int) *Interaction {
	return &Interaction{Dim: dim, NumTables: numTables}
}

// OutputDim returns the width of the interaction output:
// dim + C(numTables+1, 2) pairwise terms.
func (it *Interaction) OutputDim() int {
	f := it.NumTables + 1
	return it.Dim + f*(f-1)/2
}

// Forward consumes the dense tower output (batch×dim) and one embedding
// matrix per table (each batch×dim) and returns the interaction features.
func (it *Interaction) Forward(dense *tensor.Matrix, embs []*tensor.Matrix) *tensor.Matrix {
	if len(embs) != it.NumTables {
		//elrec:invariant the model gathers one embedding per table it was built with
		panic(shapeErr("Interaction expected %d embedding tables, got %d", it.NumTables, len(embs)))
	}
	if dense.Cols != it.Dim {
		//elrec:invariant dense width is fixed by the bottom MLP output size
		panic(shapeErr("Interaction dense width %d want %d", dense.Cols, it.Dim))
	}
	batch := dense.Rows
	for i, e := range embs {
		if e.Rows != batch || e.Cols != it.Dim {
			//elrec:invariant embedding lookups are batch x dim by construction
			panic(shapeErr("Interaction emb[%d] is %dx%d want %dx%d", i, e.Rows, e.Cols, batch, it.Dim))
		}
	}
	it.dense, it.embs = dense, embs

	it.out = tensor.Reuse(it.out, batch, it.OutputDim())
	out := it.out // every element is written below; no zeroing needed
	f := it.NumTables + 1
	for s := 0; s < batch; s++ {
		row := out.Row(s)
		copy(row[:it.Dim], dense.Row(s))
		pos := it.Dim
		// Pairwise dots over the stacked feature list [dense, emb0, emb1, ...],
		// strictly lower triangle (i > j).
		for i := 1; i < f; i++ {
			vi := it.feature(i, s)
			for j := 0; j < i; j++ {
				row[pos] = tensor.Dot(vi, it.feature(j, s))
				pos++
			}
		}
	}
	return out
}

// feature returns stacked feature idx for sample s: 0 is the dense vector,
// 1..NumTables are embeddings.
func (it *Interaction) feature(idx, s int) []float32 {
	if idx == 0 {
		return it.dense.Row(s)
	}
	return it.embs[idx-1].Row(s)
}

// Backward returns gradients for the dense tower output and each embedding
// matrix given the gradient of the interaction output. The returned
// matrices are layer-owned and overwritten by the next Backward.
func (it *Interaction) Backward(dy *tensor.Matrix) (dDense *tensor.Matrix, dEmbs []*tensor.Matrix) {
	if it.dense == nil {
		//elrec:invariant the training step always runs Forward before Backward
		panic(usageErr("Interaction Backward before Forward"))
	}
	batch := it.dense.Rows
	if dy.Rows != batch || dy.Cols != it.OutputDim() {
		//elrec:invariant the upstream gradient mirrors the Forward output shape
		panic(shapeErr("Interaction backward grad %dx%d want %dx%d", dy.Rows, dy.Cols, batch, it.OutputDim()))
	}
	it.dDense = tensor.Reuse(it.dDense, batch, it.Dim)
	dDense = it.dDense
	dDense.Zero()
	if it.dEmbs == nil {
		it.dEmbs = make([]*tensor.Matrix, it.NumTables)
	}
	for i := range it.dEmbs {
		it.dEmbs[i] = tensor.Reuse(it.dEmbs[i], batch, it.Dim)
		it.dEmbs[i].Zero()
	}
	dEmbs = it.dEmbs
	grad := func(idx, s int) []float32 {
		if idx == 0 {
			return dDense.Row(s)
		}
		return dEmbs[idx-1].Row(s)
	}
	f := it.NumTables + 1
	for s := 0; s < batch; s++ {
		row := dy.Row(s)
		tensor.AddTo(dDense.Row(s), row[:it.Dim])
		pos := it.Dim
		for i := 1; i < f; i++ {
			for j := 0; j < i; j++ {
				g := row[pos]
				pos++
				if g == 0 {
					continue
				}
				tensor.Axpy(g, it.feature(j, s), grad(i, s))
				tensor.Axpy(g, it.feature(i, s), grad(j, s))
			}
		}
	}
	return dDense, dEmbs
}

// ForwardShared is the once-per-group half of a forward pass in which every
// stacked feature but one is shared by a run of rows (a scoring request: one
// context, many candidate items). For each row g of dense/embs it writes into
// row g of tmpl (reused, returned) what Forward would write for any row of
// that group — the dense copy and every pairwise dot not involving embedding
// vary — and leaves the NumTables columns that do involve it for FillVarying.
// embs[vary] is not read.
func (it *Interaction) ForwardShared(tmpl, dense *tensor.Matrix, embs []*tensor.Matrix, vary int) *tensor.Matrix {
	tmpl = tensor.Reuse(tmpl, dense.Rows, it.OutputDim())
	f := it.NumTables + 1
	for g := 0; g < dense.Rows; g++ {
		row := tmpl.Row(g)
		copy(row[:it.Dim], dense.Row(g))
		pos := it.Dim
		for i := 1; i < f; i++ {
			if i == vary+1 {
				pos += i
				continue
			}
			vi := stacked(dense, embs, i, g)
			for j := 0; j < i; j++ {
				if j != vary+1 {
					row[pos] = tensor.Dot(vi, stacked(dense, embs, j, g))
				}
				pos++
			}
		}
	}
	return tmpl
}

// FillVarying is the per-row half: row s of out (reused, returned) becomes
// row group[s] of the ForwardShared template with the columns of embedding
// vary filled from row s of item. Every element is the tensor.Dot Forward
// computes on the replicated batch, same operands in the same argument order
// — the varying feature first against lower stacked features, second against
// higher ones — so out is bit-identical to Forward's output.
func (it *Interaction) FillVarying(out, tmpl, dense *tensor.Matrix, embs []*tensor.Matrix, vary int, item *tensor.Matrix, group []int) *tensor.Matrix {
	out = tensor.Reuse(out, item.Rows, it.OutputDim())
	f := it.NumTables + 1
	v := vary + 1
	for s := 0; s < item.Rows; s++ {
		g := group[s]
		row := out.Row(s)
		copy(row, tmpl.Row(g))
		vs := item.Row(s)
		pos := it.Dim + v*(v-1)/2
		for j := 0; j < v; j++ {
			row[pos+j] = tensor.Dot(vs, stacked(dense, embs, j, g))
		}
		for i := v + 1; i < f; i++ {
			row[it.Dim+i*(i-1)/2+v] = tensor.Dot(stacked(dense, embs, i, g), vs)
		}
	}
	return out
}

// stacked is Interaction.feature over explicit inputs: stacked feature idx of
// row s, 0 the dense vector and 1..NumTables the embeddings.
func stacked(dense *tensor.Matrix, embs []*tensor.Matrix, idx, s int) []float32 {
	if idx == 0 {
		return dense.Row(s)
	}
	return embs[idx-1].Row(s)
}
