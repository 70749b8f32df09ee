package dlrm

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ScoreGroup is one scoring request: a context and the candidate items to
// score against it. Sparse holds one index per table; its item-feature slot
// is ignored.
type ScoreGroup struct {
	Dense  []float32
	Sparse []int
	Items  []int
}

// ScoreScratch is the reusable state of ScoreGroups: the G-row context batch,
// the per-group interaction template and packed context features, and the
// flattened candidate rows. It grows to the high-water shape once; one
// goroutine owns it at a time.
type ScoreScratch struct {
	dense   *tensor.Matrix   // G × NumDense context dense features
	sparse  [][]int          // per table, G context indices
	offsets []int            // 0..n-1 bag offsets, n up to max(G, chunk)
	embs    []*tensor.Matrix // per table, G context rows; the item slot stays nil
	tmpl    *tensor.Matrix   // G × OutputDim: what a group's rows share
	ctx     *tensor.Matrix   // G × (tables+1)·EmbDim: each group's stacked features, item slot zero
	x       *tensor.Matrix   // chunk × OutputDim interaction output
	items   []int            // every group's items, flattened in group order
	group   []int            // group of each flattened row
}

// prepare sizes the scratch for g groups of rows candidate rows in total,
// scored at most chunk rows at a time over numDense dense and numTables
// sparse features.
func (s *ScoreScratch) prepare(g, rows, chunk, numDense, numTables int) {
	s.dense = tensor.Reuse(s.dense, g, numDense)
	if len(s.sparse) != numTables {
		s.sparse = make([][]int, numTables)
		s.embs = make([]*tensor.Matrix, numTables)
	}
	for t := range s.sparse {
		if cap(s.sparse[t]) < g {
			s.sparse[t] = make([]int, g)
		}
		s.sparse[t] = s.sparse[t][:g]
	}
	if n := max(g, min(chunk, rows)); len(s.offsets) < n {
		s.offsets = make([]int, n)
		for i := range s.offsets {
			s.offsets[i] = i
		}
	}
	if cap(s.items) < rows {
		s.items = make([]int, rows)
		s.group = make([]int, rows)
	}
	s.items, s.group = s.items[:rows], s.group[:rows]
}

// ScoreGroups is the scoring forward: it writes the CTR probability of every
// group's items, in group then item order, into scores (whose length must be
// the total item count). Everything that depends only on a group's context —
// the bottom MLP, the lookup of every table but itemFeature, the dense copy
// and the context×context interaction dots — runs once per group; then, per
// chunk of at most chunk rows, the item table is looked up, each row takes
// its group's interaction template plus its own item's pair columns, and the
// top MLP and the sigmoid run on the full rows.
//
// The scores are bit-identical to Predict on the batch that replicates each
// context across its items (serve.Batcher.Build): every output element is the
// same function of the same operands. A table row is pooled from zero
// whatever its batch, and a GEMM element depends on its A row, B column and
// k, never on the row or column count — which covers the interaction too:
// a pair's higher stacked feature is the A row and its lower one the B row
// of an NT product in Forward and in FillVarying alike. The top MLP's first
// layer is deliberately not split into a once-per-context k-range plus a
// per-item k-range: that would change the summation order and with it the
// bits.
//
// Context lookups must stay live across the chunks, which they do: every
// table owns its result until its own next Lookup, and only the item table
// is looked up again.
func (m *Model) ScoreGroups(s *ScoreScratch, itemFeature, chunk int, groups []ScoreGroup, scores []float32) {
	rows := 0
	for i := range groups {
		rows += len(groups[i].Items)
	}
	if rows != len(scores) {
		panic("dlrm: ScoreGroups scores length does not match the item count")
	}
	if rows == 0 {
		return
	}
	s.prepare(len(groups), rows, chunk, m.Cfg.NumDense, len(m.Tables))
	at := 0
	for g := range groups {
		grp := &groups[g]
		copy(s.dense.Row(g), grp.Dense)
		for t, idx := range grp.Sparse {
			s.sparse[t][g] = idx
		}
		for _, item := range grp.Items {
			s.items[at], s.group[at] = item, g
			at++
		}
	}

	z0 := m.Bottom.Forward(s.dense)
	for t, tbl := range m.Tables {
		if t != itemFeature {
			s.embs[t] = tbl.Lookup(s.sparse[t], s.offsets[:len(groups)])
		}
	}
	s.tmpl, s.ctx = m.Interaction.ForwardShared(s.tmpl, s.ctx, z0, s.embs, itemFeature)

	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		item := m.Tables[itemFeature].Lookup(s.items[lo:hi], s.offsets[:hi-lo])
		s.x = m.Interaction.FillVarying(s.x, s.tmpl, s.ctx, itemFeature, item, s.group[lo:hi])
		logits := m.Top.Forward(s.x)
		nn.SigmoidInto(scores[lo:hi], logits.Data)
	}
}
