package nn

import (
	"repro/internal/tensor"
)

// Interaction is the DLRM dot-product feature-interaction layer. For each
// sample it stacks the bottom-MLP output with the per-table embedding
// vectors, computes all pairwise dot products, and concatenates the strictly
// lower triangle of the Gram matrix after the original dense vector — exactly
// the reference DLRM "dot" interaction.
//
// Every entry point works on one sample's stacked features Z, (T+1)×Dim with
// the dense vector in row 0: the forward is the NT product Z·Zᵀ, the backward
// the NN product S·Z with S the symmetric matrix of pair gradients. Pair
// (i, j), i > j, is always row i of the A operand against row j of the B
// operand, so by the kernels' rule (an element depends on its A row, its B row
// and k, never on m or n; DESIGN.md §12) the grouped scoring forward below
// reproduces Forward's bits.
type Interaction struct {
	Dim       int // feature dimension shared by dense output and embeddings
	NumTables int // number of embedding vectors per sample

	dense *tensor.Matrix
	embs  []*tensor.Matrix

	// Layer-owned buffers, reused per step.
	out    *tensor.Matrix
	dDense *tensor.Matrix
	dEmbs  []*tensor.Matrix

	// One sample's scratch: z its stacked features, gram Z·Zᵀ (forward) or S
	// (backward), (T+1)×(T+1), dz S·Z; pairs holds FillVarying's two products
	// for one run of rows.
	z, gram, dz, pairs []float32
}

// NewInteraction returns an interaction layer over numTables embeddings of
// width dim.
func NewInteraction(dim, numTables int) *Interaction {
	f := numTables + 1
	return &Interaction{
		Dim: dim, NumTables: numTables,
		z: make([]float32, f*dim), gram: make([]float32, f*f), dz: make([]float32, f*dim),
	}
}

// OutputDim returns the width of the interaction output:
// dim + C(numTables+1, 2) pairwise terms.
func (it *Interaction) OutputDim() int {
	f := it.NumTables + 1
	return it.Dim + f*(f-1)/2
}

// pack copies the stacked features of row s — the dense vector, then one row
// per table — into z; the slot of a nil table is left as it is.
func (it *Interaction) pack(z []float32, dense *tensor.Matrix, embs []*tensor.Matrix, s int) {
	d := it.Dim
	copy(z[:d], dense.Row(s))
	for t, e := range embs {
		if e != nil {
			copy(z[(t+1)*d:(t+2)*d], e.Row(s))
		}
	}
}

// featuresInto writes the interaction features of one sample into row: its
// dense vector, then the strict lower triangle of Z·Zᵀ row by row.
func (it *Interaction) featuresInto(row, z []float32) {
	f := it.NumTables + 1
	tensor.GemmTransBInto(f, it.Dim, f, z, z, it.gram)
	pos := copy(row, z[:it.Dim])
	for i := 1; i < f; i++ {
		pos += copy(row[pos:pos+i], it.gram[i*f:])
	}
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

	it.out = tensor.Reuse(it.out, batch, it.OutputDim()) // every element is written below
	for s := 0; s < batch; s++ {
		it.pack(it.z, dense, embs, s)
		it.featuresInto(it.out.Row(s), it.z)
	}
	return it.out
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
	if it.dEmbs == nil {
		it.dEmbs = make([]*tensor.Matrix, it.NumTables)
	}
	for i := range it.dEmbs {
		it.dEmbs[i] = tensor.Reuse(it.dEmbs[i], batch, it.Dim)
	}
	f, d, sym := it.NumTables+1, it.Dim, it.gram
	for s := 0; s < batch; s++ {
		// dZ = S·Z: feature i collects g(i,j)·z_j over every pair it is in.
		row := dy.Row(s)
		pos := d
		for i := 0; i < f; i++ {
			for j := 0; j < i; j++ {
				sym[i*f+j], sym[j*f+i] = row[pos], row[pos]
				pos++
			}
			sym[i*f+i] = 0
		}
		it.pack(it.z, it.dense, it.embs, s)
		tensor.GemmInto(f, f, d, sym, it.z, it.dz)
		tensor.AddTo(it.dz[:d], row[:d])
		copy(it.dDense.Row(s), it.dz)
		for t, de := range it.dEmbs {
			copy(de.Row(s), it.dz[(t+1)*d:])
		}
	}
	return it.dDense, it.dEmbs
}

// ForwardShared is the once-per-group half of a forward pass in which every
// stacked feature but one is shared by a run of rows (a scoring request: one
// context, many candidate items). For each row g of dense/embs it packs the
// stacked features into row g of ctx (G×(NumTables+1)·Dim, embedding vary's
// slot cleared; embs[vary] is not read) and writes into row g of tmpl what
// Forward would write for any row of that group — the dense copy and every
// pairwise dot not involving embedding vary; the NumTables columns that do
// involve it are FillVarying's. Both matrices are reused and returned.
func (it *Interaction) ForwardShared(tmpl, ctx, dense *tensor.Matrix, embs []*tensor.Matrix, vary int) (*tensor.Matrix, *tensor.Matrix) {
	tmpl = tensor.Reuse(tmpl, dense.Rows, it.OutputDim())
	ctx = tensor.Reuse(ctx, dense.Rows, (it.NumTables+1)*it.Dim)
	for g := 0; g < dense.Rows; g++ {
		z := ctx.Row(g)
		it.pack(z, dense, embs, g)
		clear(z[(vary+1)*it.Dim : (vary+2)*it.Dim])
		it.featuresInto(tmpl.Row(g), z)
	}
	return tmpl, ctx
}

// FillVarying is the per-row half: row s of out (reused, returned) becomes
// row group[s] of the ForwardShared template with the columns of embedding
// vary filled from row s of item. Each run of rows sharing a group takes two
// products against the group's packed context Z: items·Z[:v]ᵀ and
// Z[v+1:]·itemsᵀ, v = vary+1 — the item is the A row against lower stacked
// features and the B row against higher ones, the operand roles Forward's
// lower triangle gives it, so out is bit-identical to Forward's output on
// the replicated batch (NaN payloads aside, DESIGN.md §12).
func (it *Interaction) FillVarying(out, tmpl, ctx *tensor.Matrix, vary int, item *tensor.Matrix, group []int) *tensor.Matrix {
	out = tensor.Reuse(out, item.Rows, it.OutputDim())
	f, d, v := it.NumTables+1, it.Dim, vary+1
	if len(it.pairs) < item.Rows*it.NumTables {
		it.pairs = make([]float32, item.Rows*it.NumTables)
	}
	for lo, hi := 0, 0; lo < item.Rows; lo = hi {
		g := group[lo]
		for hi = lo + 1; hi < item.Rows && group[hi] == g; hi++ {
		}
		n := hi - lo
		z, items := ctx.Row(g), item.Data[lo*d:hi*d]
		below, above := it.pairs[:n*v], it.pairs[n*v:n*it.NumTables]
		tensor.GemmTransBInto(n, d, v, items, z[:v*d], below)
		tensor.GemmTransBInto(f-1-v, d, n, z[(v+1)*d:], items, above)
		for r := 0; r < n; r++ {
			row := out.Row(lo + r)
			copy(row, tmpl.Row(g))
			copy(row[d+v*(v-1)/2:], below[r*v:(r+1)*v])
			for i := v + 1; i < f; i++ {
				row[d+i*(i-1)/2+v] = above[(i-v-1)*n+r]
			}
		}
	}
	return out
}
