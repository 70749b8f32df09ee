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
// Each sample's stacked features Z are (T+1)×Dim with the dense vector in
// row 0; its forward is the NT product Z·Zᵀ, its backward the NN product S·Z
// with S the symmetric matrix of pair gradients. Forward and Backward run
// them tensor.Lanes samples at a time on lane blocks (tensor.PairDots,
// tensor.PairGrad), each lane with the bits of its sample's own product.
// Pair (i, j), i > j, is always row i of the A operand against row j of the
// B operand, so by the kernels' rule (an element depends on its A row, its B
// row and k, never on m or n; DESIGN.md §12) the per-sample grouped scoring
// forward below reproduces Forward's bits.
type Interaction struct {
	Dim       int // feature dimension shared by dense output and embeddings
	NumTables int // number of embedding vectors per sample

	dense *tensor.Matrix
	embs  []*tensor.Matrix

	// Layer-owned buffers, reused per step.
	out    *tensor.Matrix
	dDense *tensor.Matrix
	dEmbs  []*tensor.Matrix
	dy     *tensor.Matrix // Backward's upstream gradient, for the executors

	// blocks[p] is the scratch of the executor running the batch's part p;
	// split sets parts and block.
	blocks []blockScratch
	parts  int
	block  func(it *Interaction, sc *blockScratch, s0, rows int)
	// gram is ForwardShared's Z·Zᵀ; pairs holds FillVarying's two products
	// for one run of rows.
	gram, pairs []float32
}

// blockScratch is one executor's lane blocks: z the stacked features
// (T+1 features of Dim vectors), y the pair dots (forward) or the rows of dy
// (backward), dz S·Z; rows holds the block's rows of each feature's matrix
// and one holds one matrix's, the operands of ToLanes and FromLanes.
type blockScratch struct {
	z, y, dz  []float32
	rows, one [][]float32
}

// NewInteraction returns an interaction layer over numTables embeddings of
// width dim.
func NewInteraction(dim, numTables int) *Interaction {
	return &Interaction{Dim: dim, NumTables: numTables}
}

// scratch grows the layer's block scratch to p+1 executors.
func (it *Interaction) scratch(p int) {
	zs := tensor.LaneBlock(it.NumTables+1, it.Dim)
	for len(it.blocks) <= p {
		it.blocks = append(it.blocks, blockScratch{
			z: make([]float32, zs), y: make([]float32, it.OutputDim()*tensor.Lanes), dz: make([]float32, zs),
			rows: make([][]float32, it.NumTables+1), one: make([][]float32, 1),
		})
	}
}

// split runs block over the batch's lane blocks in min(Workers(), blocks)
// contiguous parts, one executor per part on the part's own scratch. A
// lane's arithmetic depends on neither its block nor its part, so neither
// do the bits.
func (it *Interaction) split(batch int, block func(it *Interaction, sc *blockScratch, s0, rows int)) {
	it.parts, it.block = min(tensor.Workers(), laneBlocks(batch)), block
	it.scratch(max(it.parts-1, 0))
	tensor.ParallelFor(it.parts, it, runBlocks)
}

// laneBlocks is the number of lane blocks a batch takes.
func laneBlocks(batch int) int { return (batch + tensor.Lanes - 1) / tensor.Lanes }

// runBlocks is split's executor body over parts [lo, hi).
func runBlocks(ctx any, lo, hi int) {
	it := ctx.(*Interaction)
	batch := it.dense.Rows
	blocks := laneBlocks(batch)
	for p := lo; p < hi; p++ {
		for b := p * blocks / it.parts; b < (p+1)*blocks/it.parts; b++ {
			s0 := b * tensor.Lanes
			it.block(it, &it.blocks[p], s0, min(tensor.Lanes, batch-s0))
		}
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
// dense vector, then the strict lower triangle of Z·Zᵀ (into gram) row by
// row.
func (it *Interaction) featuresInto(row, z, gram []float32) {
	f := it.NumTables + 1
	tensor.GemmTransBInto(f, it.Dim, f, z, z, gram)
	pos := copy(row, z[:it.Dim])
	for i := 1; i < f; i++ {
		pos += copy(row[pos:pos+i], gram[i*f:])
	}
}

// lanes writes the stacked features of rows [s0, s0+rows) into the lane
// block sc.z, feature by feature.
func (it *Interaction) lanes(sc *blockScratch, s0, rows int) {
	d := it.Dim
	sc.rows[0] = it.dense.Data[s0*d:]
	for t, e := range it.embs {
		sc.rows[t+1] = e.Data[s0*d:]
	}
	tensor.ToLanes(rows, d, sc.rows, d, sc.z)
}

// Forward consumes the dense tower output (batch×dim) and one embedding
// matrix per table (each batch×dim) and returns the interaction features.
func (it *Interaction) Forward(dense *tensor.Matrix, embs []*tensor.Matrix) *tensor.Matrix {
	if len(embs) != it.NumTables {
		panic(shapeErr("Interaction expected %d embedding tables, got %d", it.NumTables, len(embs)))
	}
	if dense.Cols != it.Dim {
		panic(shapeErr("Interaction dense width %d want %d", dense.Cols, it.Dim))
	}
	batch := dense.Rows
	for i, e := range embs {
		if e.Rows != batch || e.Cols != it.Dim {
			panic(shapeErr("Interaction emb[%d] is %dx%d want %dx%d", i, e.Rows, e.Cols, batch, it.Dim))
		}
	}
	it.dense, it.embs = dense, embs

	it.out = tensor.Reuse(it.out, batch, it.OutputDim()) // every element is written below
	it.split(batch, (*Interaction).forwardBlock)
	return it.out
}

// forwardBlock writes rows [s0, s0+rows) of Forward's output.
func (it *Interaction) forwardBlock(sc *blockScratch, s0, rows int) {
	d, od := it.Dim, it.OutputDim()
	it.lanes(sc, s0, rows)
	tensor.PairDots(it.NumTables+1, d, sc.z, sc.y)
	sc.one[0] = it.out.Data[s0*od+d:]
	tensor.FromLanes(rows, od-d, sc.y, sc.one, od)
	for s := s0; s < s0+rows; s++ {
		copy(it.out.Row(s), it.dense.Row(s))
	}
}

// Backward returns gradients for the dense tower output and each embedding
// matrix given the gradient of the interaction output. The returned
// matrices are layer-owned and overwritten by the next Backward.
func (it *Interaction) Backward(dy *tensor.Matrix) (dDense *tensor.Matrix, dEmbs []*tensor.Matrix) {
	if it.dense == nil {
		panic(usageErr("Interaction Backward before Forward"))
	}
	batch := it.dense.Rows
	if dy.Rows != batch || dy.Cols != it.OutputDim() {
		panic(shapeErr("Interaction backward grad %dx%d want %dx%d", dy.Rows, dy.Cols, batch, it.OutputDim()))
	}
	it.dDense = tensor.Reuse(it.dDense, batch, it.Dim)
	if it.dEmbs == nil {
		it.dEmbs = make([]*tensor.Matrix, it.NumTables)
	}
	for i := range it.dEmbs {
		it.dEmbs[i] = tensor.Reuse(it.dEmbs[i], batch, it.Dim)
	}
	it.dy = dy
	it.split(batch, (*Interaction).backwardBlock)
	return it.dDense, it.dEmbs
}

// backwardBlock writes rows [s0, s0+rows) of Backward's gradients: dZ = S·Z,
// feature i collecting g(i,j)·z_j over every pair it is in, S read from the
// pair columns of the dy block; the dense row adds dy's dense columns.
func (it *Interaction) backwardBlock(sc *blockScratch, s0, rows int) {
	d, od, dd := it.Dim, it.OutputDim(), it.Dim*tensor.Lanes
	it.lanes(sc, s0, rows)
	sc.one[0] = it.dy.Data[s0*od:]
	tensor.ToLanes(rows, od, sc.one, od, sc.y)
	tensor.PairGrad(it.NumTables+1, d, sc.y[dd:], sc.z, sc.dz)
	tensor.AddTo(sc.dz[:dd], sc.y[:dd])
	sc.rows[0] = it.dDense.Data[s0*d:]
	for t, de := range it.dEmbs {
		sc.rows[t+1] = de.Data[s0*d:]
	}
	tensor.FromLanes(rows, d, sc.dz, sc.rows, d)
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
	if f := it.NumTables + 1; len(it.gram) < f*f {
		it.gram = make([]float32, f*f)
	}
	for g := 0; g < dense.Rows; g++ {
		z := ctx.Row(g)
		it.pack(z, dense, embs, g)
		clear(z[(vary+1)*it.Dim : (vary+2)*it.Dim])
		it.featuresInto(tmpl.Row(g), z, it.gram)
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
