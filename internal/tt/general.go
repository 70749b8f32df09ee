package tt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// GeneralShape describes a TT factorization with an arbitrary number of
// cores d ≥ 2 (the specialized Table fixes d = 3, the paper's choice; this
// is the generalization Equation 1 defines). Ranks has d−1 entries
// (R₁..R_{d−1}); R₀ = R_d = 1.
type GeneralShape struct {
	Rows, Dim  int
	RowFactors []int
	ColFactors []int
	Ranks      []int
}

// NewGeneralShape factorizes rows and dim into d balanced factors (rows
// padded up, dim exact) with uniform rank.
func NewGeneralShape(rows, dim, d, rank int) (GeneralShape, error) {
	if d < 2 {
		return GeneralShape{}, fmt.Errorf("tt: general shape needs d >= 2, got %d", d)
	}
	if rows <= 0 || dim <= 0 || rank <= 0 {
		return GeneralShape{}, fmt.Errorf("tt: invalid general shape %dx%d rank %d", rows, dim, rank)
	}
	colF, err := exactFactorsD(dim, d)
	if err != nil {
		return GeneralShape{}, err
	}
	ranks := make([]int, d-1)
	for i := range ranks {
		ranks[i] = rank
	}
	return GeneralShape{
		Rows:       rows,
		Dim:        dim,
		RowFactors: paddedFactorsD(rows, d),
		ColFactors: colF,
		Ranks:      ranks,
	}, nil
}

// D returns the number of cores.
func (s GeneralShape) D() int { return len(s.RowFactors) }

// rank returns R_k with the R₀ = R_d = 1 convention.
func (s GeneralShape) rank(k int) int {
	if k <= 0 || k >= s.D() {
		return 1
	}
	return s.Ranks[k-1]
}

// SliceSize returns the float count of one slice of core k (0-based):
// R_k × n_{k+1} × R_{k+1} in 1-based terms.
func (s GeneralShape) SliceSize(k int) int {
	return s.rank(k) * s.ColFactors[k] * s.rank(k+1)
}

// FactorIndex splits a row index into d TT indices (Equation 3).
func (s GeneralShape) FactorIndex(i int) []int {
	d := s.D()
	out := make([]int, d)
	for k := d - 1; k >= 0; k-- {
		out[k] = i % s.RowFactors[k]
		i /= s.RowFactors[k]
	}
	return out
}

// NumParams returns the trainable float count.
func (s GeneralShape) NumParams() int {
	total := 0
	for k := 0; k < s.D(); k++ {
		total += s.RowFactors[k] * s.SliceSize(k)
	}
	return total
}

// FootprintBytes returns the storage size of the cores.
func (s GeneralShape) FootprintBytes() int64 { return int64(s.NumParams()) * 4 }

// CompressionRatio returns dense bytes over TT bytes.
func (s GeneralShape) CompressionRatio() float64 {
	return float64(s.Rows) * float64(s.Dim) * 4 / float64(s.FootprintBytes())
}

// Validate reports whether the shape is consistent.
func (s GeneralShape) Validate() error {
	d := s.D()
	if d < 2 || len(s.ColFactors) != d || len(s.Ranks) != d-1 {
		return fmt.Errorf("tt: inconsistent general shape %+v", s)
	}
	prodR, prodC := 1, 1
	for k := 0; k < d; k++ {
		if s.RowFactors[k] <= 0 || s.ColFactors[k] <= 0 {
			return fmt.Errorf("tt: non-positive factor in %+v", s)
		}
		prodR *= s.RowFactors[k]
		prodC *= s.ColFactors[k]
	}
	if prodR < s.Rows {
		return fmt.Errorf("tt: row factors product %d < rows %d", prodR, s.Rows)
	}
	if prodC != s.Dim {
		return fmt.Errorf("tt: col factors product %d != dim %d", prodC, s.Dim)
	}
	for _, r := range s.Ranks {
		if r <= 0 {
			return fmt.Errorf("tt: non-positive rank in %+v", s)
		}
	}
	return nil
}

// GeneralTable is a TT table with an arbitrary number of cores. It provides
// the same sum-pooling Lookup/Update interface as the specialized 3-core
// Table (so it slots into a DLRM directly) with unique-index deduplication
// and multi-level prefix reuse in the forward pass: unique indices are
// processed in sorted order and the partial core products of the longest
// common TT-index prefix carry over between consecutive indices —
// generalizing the paper's two-core reuse buffer to every level.
//
// It is not a product table: it exists for the ext-ttdepth experiment
// (compression and cost as d grows) and as the independent d = 3 oracle the
// tests hold Table against. The facade does not construct it, the checkpoint
// codec refuses it and dlrm.Model.CloneForServing returns ErrNotServable for
// it; none of Table's optimizations (arena, stacked products, two-level
// backward) apply here.
type GeneralTable struct {
	Shape GeneralShape
	// Cores[k] has RowFactors[k] rows of SliceSize(k) floats; slice layout
	// is R_k × (n_{k+1}·R_{k+1}) row-major, matching the 3-core Table.
	Cores []*tensor.Matrix
}

// NewGeneralTable allocates random cores scaled so materialized rows land
// near targetStd (0 = default 0.05).
func NewGeneralTable(shape GeneralShape, rng *tensor.RNG, targetStd float64) *GeneralTable {
	if err := shape.Validate(); err != nil {
		//elrec:invariant shape pre-validated by callers; Shape.Validate is the error-returning path
		panic(err)
	}
	if targetStd <= 0 {
		targetStd = 0.05
	}
	d := shape.D()
	prodRanks := 1.0
	for _, r := range shape.Ranks {
		prodRanks *= float64(r)
	}
	sigma := math.Pow(targetStd*targetStd/prodRanks, 1/(2*float64(d)))
	t := &GeneralTable{Shape: shape, Cores: make([]*tensor.Matrix, d)}
	for k := 0; k < d; k++ {
		t.Cores[k] = tensor.New(shape.RowFactors[k], shape.SliceSize(k))
		rng.FillNormal(t.Cores[k].Data, float32(sigma))
	}
	return t
}

// NumRows returns the logical row count.
func (t *GeneralTable) NumRows() int { return t.Shape.Rows }

// Dim returns the embedding dimension.
func (t *GeneralTable) Dim() int { return t.Shape.Dim }

// FootprintBytes returns core storage in bytes.
func (t *GeneralTable) FootprintBytes() int64 { return t.Shape.FootprintBytes() }

// leftSizes returns N_k = n₁·..·n_k for k = 0..d.
func (t *GeneralTable) leftSizes() []int {
	d := t.Shape.D()
	out := make([]int, d+1)
	out[0] = 1
	for k := 0; k < d; k++ {
		out[k+1] = out[k] * t.Shape.ColFactors[k]
	}
	return out
}

// extendLeft computes L_{k+1} from L_k: (N_k × R_k) · slice(R_k × n R') →
// reshape to N_{k+1} × R_{k+1}.
func (t *GeneralTable) extendLeft(k int, left []float32, slice []float32, dst []float32) {
	n := t.leftSizes()
	tensor.GemmInto(n[k], t.Shape.rank(k), t.Shape.ColFactors[k]*t.Shape.rank(k+1), left, slice, dst)
}

// LookupRow materializes one row.
func (t *GeneralTable) LookupRow(i int, dst []float32) {
	if i < 0 || i >= t.Shape.Rows {
		//elrec:invariant index bounds/shape contract: inputs are validated upstream
		panic(fmt.Sprintf("tt: general LookupRow index %d out of [0,%d)", i, t.Shape.Rows))
	}
	if len(dst) != t.Shape.Dim {
		//elrec:invariant index bounds/shape contract: inputs are validated upstream
		panic(fmt.Sprintf("tt: general LookupRow dst len %d want %d", len(dst), t.Shape.Dim))
	}
	idx := t.Shape.FactorIndex(i)
	n := t.leftSizes()
	cur := []float32{1}
	for k := 0; k < t.Shape.D(); k++ {
		next := make([]float32, n[k+1]*t.Shape.rank(k+1))
		t.extendLeft(k, cur, t.Cores[k].Row(idx[k]), next)
		cur = next
	}
	copy(dst, cur)
}

// Materialize reconstructs the full logical table.
func (t *GeneralTable) Materialize() *tensor.Matrix {
	out := tensor.New(t.Shape.Rows, t.Shape.Dim)
	for i := 0; i < t.Shape.Rows; i++ {
		t.LookupRow(i, out.Row(i))
	}
	return out
}

// Lookup performs the sum-pooled batch lookup with dedup + multi-level
// prefix reuse and caches the batch for Update.
func (t *GeneralTable) Lookup(indices, offsets []int) *tensor.Matrix {
	t.validate(indices, offsets)

	uniq, inverse := embedding.Unique(indices)
	rows := t.uniqueRows(uniq)

	out := tensor.New(len(offsets), t.Shape.Dim)
	for s := range offsets {
		start, end := embedding.BagBounds(offsets, s, len(indices))
		row := out.Row(s)
		for p := start; p < end; p++ {
			tensor.AddTo(row, rows.Row(inverse[p]))
		}
	}
	return out
}

// uniqueRows materializes one row per unique index, reusing the partial
// products shared by the longest common TT-index prefix between
// consecutive indices in sorted order.
func (t *GeneralTable) uniqueRows(uniq []int) *tensor.Matrix {
	d := t.Shape.D()
	n := t.leftSizes()
	rows := tensor.New(len(uniq), t.Shape.Dim)

	order := make([]int, len(uniq))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return uniq[order[a]] < uniq[order[b]] })

	// partial[k] holds L_{k+1} for the current prefix (after consuming core k).
	partial := make([][]float32, d)
	for k := 0; k < d; k++ {
		partial[k] = make([]float32, n[k+1]*t.Shape.rank(k+1))
	}
	var prevIdx []int
	for _, u := range order {
		idx := t.Shape.FactorIndex(uniq[u])
		// Longest common prefix with the previous index.
		common := 0
		if prevIdx != nil {
			for common < d && idx[common] == prevIdx[common] {
				common++
			}
		}
		cur := []float32{1}
		if common > 0 {
			cur = partial[common-1]
		}
		for k := common; k < d; k++ {
			t.extendLeft(k, cur, t.Cores[k].Row(idx[k]), partial[k])
			cur = partial[k]
		}
		copy(rows.Row(u), cur)
		prevIdx = idx
	}
	return rows
}

// Update computes core gradients for the most recent (or given) batch with
// in-advance gradient aggregation and applies SGD.
func (t *GeneralTable) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	t.validate(indices, offsets)
	if dOut.Rows != len(offsets) || dOut.Cols != t.Shape.Dim {
		//elrec:invariant index bounds/shape contract: inputs are validated upstream
		panic(fmt.Sprintf("tt: general Update grad %dx%d want %dx%d", dOut.Rows, dOut.Cols, len(offsets), t.Shape.Dim))
	}
	uniq, inverse := embedding.Unique(indices)
	grads := tensor.New(len(uniq), t.Shape.Dim)
	for s := range offsets {
		start, end := embedding.BagBounds(offsets, s, len(indices))
		src := dOut.Row(s)
		for p := start; p < end; p++ {
			tensor.AddTo(grads.Row(inverse[p]), src)
		}
	}
	// Accumulate exact batch gradients into core-shaped buffers, then apply
	// one SGD step (the unfused discipline; the specialized Table offers the
	// fused variant).
	bufs := make([]*tensor.Matrix, t.Shape.D())
	for k := range bufs {
		bufs[k] = tensor.New(t.Cores[k].Rows, t.Cores[k].Cols)
	}
	for u, idx := range uniq {
		t.backwardRow(idx, grads.Row(u), bufs)
	}
	for k := range bufs {
		tensor.Axpy(-lr, bufs[k].Data, t.Cores[k].Data)
	}
}

// backwardRow accumulates the core gradients of one row into bufs.
//
// With L_k = cores 1..k product (N_k × R_k) and Rt_k = cores k+1..d product
// (R_k × M_k, M_k = n_{k+1}..n_d), the gradient of core k's slice is
//
//	dG_k = L_{k-1}ᵀ · reshape(g·Rt_kᵀ, N_{k-1} × n_k·R_k)
func (t *GeneralTable) backwardRow(row int, g []float32, bufs []*tensor.Matrix) {
	d := t.Shape.D()
	idx := t.Shape.FactorIndex(row)
	n := t.leftSizes()

	// Left partial products L_0..L_{d-1}.
	lefts := make([][]float32, d)
	lefts[0] = []float32{1}
	cur := lefts[0]
	for k := 0; k+1 < d; k++ {
		next := make([]float32, n[k+1]*t.Shape.rank(k+1))
		t.extendLeft(k, cur, t.Cores[k].Row(idx[k]), next)
		lefts[k+1] = next
		cur = next
	}

	// Right partial products Rt_k for k = d..1 (Rt_d = [1]).
	// Rt_k has shape R_k × M_k where M_k = Dim / N_k.
	rights := make([][]float32, d+1)
	rights[d] = []float32{1}
	for k := d - 1; k >= 1; k-- {
		rk := t.Shape.rank(k)
		rk1 := t.Shape.rank(k + 1)
		nk1 := t.Shape.ColFactors[k]
		mNext := t.Shape.Dim / n[k+1] // M_{k+1}
		m := nk1 * mNext              // M_k
		out := make([]float32, rk*m)
		slice := t.Cores[k].Row(idx[k]) // R_k × (n_{k+1} R_{k+1})
		for j := 0; j < nk1; j++ {
			// block = slice[:, j·R_{k+1}:(j+1)·R_{k+1}] (R_k × R_{k+1})
			// out[:, j·mNext:(j+1)·mNext] = block · Rt_{k+1}
			for r := 0; r < rk; r++ {
				blockRow := slice[r*nk1*rk1+j*rk1 : r*nk1*rk1+(j+1)*rk1]
				dst := out[r*m+j*mNext : r*m+(j+1)*mNext]
				for rr, bv := range blockRow {
					if bv == 0 {
						continue
					}
					tensor.Axpy(bv, rights[k+1][rr*mNext:(rr+1)*mNext], dst)
				}
			}
		}
		rights[k] = out
	}

	// Per-core gradient and SGD update.
	for k := 0; k < d; k++ {
		rkPrev := t.Shape.rank(k) // R_{k-1} in 1-based terms
		rkNext := t.Shape.rank(k + 1)
		nk := t.Shape.ColFactors[k]
		mK := t.Shape.Dim / n[k+1] // M_k (cols of Rt_{k+1} in 1-based = rights[k+1])
		// B = g (viewed N_k·n_k × M_k) · Rt_kᵀ → (N_k·n_k × R_k); flat buffer
		// equals N_{k-1} × (n_k·R_k) row-major in 1-based terms.
		rowsB := n[k] * nk
		b := make([]float32, rowsB*rkNext)
		tensor.GemmTransBAddInto(rowsB, mK, rkNext, g, rights[k+1], b)
		// dG = L_{k-1}ᵀ · B  (R_{k-1} × n_k·R_k), accumulated per slice.
		tensor.GemmTransAAddInto(rkPrev, n[k], nk*rkNext, 1, lefts[k], b, bufs[k].Row(idx[k]))
	}
}

func (t *GeneralTable) validate(indices, offsets []int) {
	if len(offsets) == 0 {
		//elrec:invariant index bounds/shape contract: inputs are validated upstream
		panic("tt: general table empty offsets")
	}
	if offsets[0] != 0 {
		//elrec:invariant index bounds/shape contract: inputs are validated upstream
		panic("tt: general table offsets[0] != 0")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			//elrec:invariant index bounds/shape contract: inputs are validated upstream
			panic("tt: general table offsets not monotone")
		}
	}
	if offsets[len(offsets)-1] > len(indices) {
		//elrec:invariant index bounds/shape contract: inputs are validated upstream
		panic("tt: general table last offset exceeds indices")
	}
	for _, idx := range indices {
		if idx < 0 || idx >= t.Shape.Rows {
			//elrec:invariant index bounds/shape contract: inputs are validated upstream
			panic(fmt.Sprintf("tt: general table index %d out of [0,%d)", idx, t.Shape.Rows))
		}
	}
}

// paddedFactorsD factorizes n into d near-equal factors with product ≥ n.
func paddedFactorsD(n, d int) []int {
	out := make([]int, d)
	rest := n
	for k := d - 1; k >= 0; k-- {
		f := int(math.Ceil(math.Pow(float64(rest), 1/float64(k+1))))
		if f < 1 {
			f = 1
		}
		out[k] = f
		rest = ceilDiv(rest, f)
	}
	return out
}

// exactFactorsD factorizes n into d factors with exact product, as balanced
// as a greedy divisor search can make them.
func exactFactorsD(n, d int) ([]int, error) {
	out := make([]int, d)
	rest := n
	for k := d - 1; k >= 1; k-- {
		target := math.Pow(float64(rest), 1/float64(k+1))
		// Largest divisor of rest that is ≤ ceil(target), else smallest ≥.
		f := 1
		for c := int(math.Ceil(target)); c >= 1; c-- {
			if rest%c == 0 {
				f = c
				break
			}
		}
		if f == 1 {
			for c := int(math.Ceil(target)) + 1; c <= rest; c++ {
				if rest%c == 0 {
					f = c
					break
				}
			}
		}
		out[k] = f
		rest /= f
	}
	out[0] = rest
	prod := 1
	for _, f := range out {
		prod *= f
	}
	if prod != n {
		return nil, fmt.Errorf("tt: cannot factor dim %d into %d factors", n, d)
	}
	return out, nil
}
