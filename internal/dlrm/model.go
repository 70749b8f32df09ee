// Package dlrm assembles the full deep learning recommendation model of
// Figure 2 — bottom MLP over dense features, embedding tables over sparse
// features, dot-product feature interaction, top MLP — and provides the
// training loops the experiments drive. The embedding layer is abstracted
// behind the Table interface so the uncompressed baseline, TT-Rec-style
// tables, the Eff-TT table and the sharded/cached baseline executors are
// interchangeable.
package dlrm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// Table is the embedding-table abstraction: sum-pooling lookup over
// indices/offsets bags and a combined backward+SGD update.
// embedding.Bag, tt.Table and the baseline executors all satisfy it. The
// table-scratch contract: Lookup's result is table-owned and stays valid
// until that table's next Lookup, so a step holds one result per table.
type Table interface {
	Lookup(indices, offsets []int) *tensor.Matrix
	Update(indices, offsets []int, dOut *tensor.Matrix, lr float32)
	NumRows() int
	Dim() int
	FootprintBytes() int64
}

// Config describes the dense part of a DLRM.
type Config struct {
	NumDense    int   // dense input features
	EmbDim      int   // embedding dimension (shared by all tables)
	BottomSizes []int // hidden sizes of the bottom MLP (output EmbDim appended)
	TopSizes    []int // hidden sizes of the top MLP (output 1 appended)
	LR          float32
	Seed        uint64
}

// DefaultConfig mirrors the DLRM reference tower sizes at a given embedding
// dimension.
func DefaultConfig(numDense, embDim int) Config {
	return Config{
		NumDense:    numDense,
		EmbDim:      embDim,
		BottomSizes: []int{64, 32},
		TopSizes:    []int{64, 32},
		LR:          0.1,
		Seed:        1,
	}
}

// Model is one replica of the DLRM.
type Model struct {
	Cfg         Config
	Bottom, Top *nn.MLP
	Interaction *nn.Interaction
	Tables      []Table

	opt     *nn.SGD
	params  []*nn.Param // MLPParams, collected once for ApplyStep
	timing  Timing
	clock   obs.Clock        // timestamp source for TrainStep's Timing split; never nil
	embs    []*tensor.Matrix // per-step lookup results, slice reused across steps
	dLogits *tensor.Matrix   // the loss gradient, reused across steps
	order   []int            // the table stage's claim order (claimOrder)
	stage   tableStage
}

// claimOrder is the order the table stage claims tables in, longest first:
// Eff-TT tables by falling row count, then the others by index.
func claimOrder(tables []Table) []int {
	var tts, rest []int
	for i, t := range tables {
		if _, ok := t.(*tt.Table); ok {
			tts = append(tts, i)
		} else {
			rest = append(rest, i)
		}
	}
	slices.SortStableFunc(tts, func(a, b int) int { return tables[b].NumRows() - tables[a].NumRows() })
	return append(tts, rest...)
}

// tableStage is one pass of every table's Lookup (dEmbs nil) or Update over
// a batch. The tables are independent and each owns its scratch, so
// min(Workers(), tables) executors claim them from next in claim order; a
// table's own ParallelFors then see every executor busy and run inline.
type tableStage struct {
	b     *data.Batch
	dEmbs []*tensor.Matrix
	next  atomic.Int64
}

// runTables runs b's table stage: every Lookup into m.embs, or with dEmbs
// every Update.
func (m *Model) runTables(b *data.Batch, dEmbs []*tensor.Matrix) {
	s := &m.stage
	s.b, s.dEmbs = b, dEmbs
	s.next.Store(0)
	tensor.ParallelFor(min(tensor.Workers(), len(m.Tables)), m, tableStageBody)
}

// tableStageBody is one executor of the model's table stage: it claims and
// runs tables until none is left.
func tableStageBody(ctx any, _, _ int) {
	m := ctx.(*Model)
	s, b := &m.stage, m.stage.b
	for k := int(s.next.Add(1)) - 1; k < len(m.order); k = int(s.next.Add(1)) - 1 {
		t := m.order[k]
		if s.dEmbs == nil {
			m.embs[t] = m.Tables[t].Lookup(b.Sparse[t], b.Offsets)
		} else {
			m.Tables[t].Update(b.Sparse[t], b.Offsets, s.dEmbs[t], m.Cfg.LR)
		}
	}
}

// SetClock replaces the timestamp source TrainStep measures against
// (nil restores the system clock). Tests inject a manual clock to make the
// embed/dense timing split deterministic.
func (m *Model) SetClock(c obs.Clock) { m.clock = obs.OrSystem(c) }

// NewModel builds a model over the given embedding tables, which must all
// share Cfg.EmbDim.
func NewModel(cfg Config, tables []Table) (*Model, error) {
	if cfg.NumDense < 0 || cfg.EmbDim <= 0 {
		return nil, fmt.Errorf("dlrm: invalid config dense=%d dim=%d", cfg.NumDense, cfg.EmbDim)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("dlrm: no embedding tables")
	}
	for i, t := range tables {
		if t.Dim() != cfg.EmbDim {
			return nil, fmt.Errorf("dlrm: table %d dim %d != %d", i, t.Dim(), cfg.EmbDim)
		}
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("dlrm: non-positive learning rate %v", cfg.LR)
	}
	rng := tensor.NewRNG(cfg.Seed)
	bottomSizes := append(append([]int{cfg.NumDense}, cfg.BottomSizes...), cfg.EmbDim)
	it := nn.NewInteraction(cfg.EmbDim, len(tables))
	topSizes := append(append([]int{it.OutputDim()}, cfg.TopSizes...), 1)
	m := &Model{
		Cfg:         cfg,
		Bottom:      nn.NewMLP(bottomSizes, rng),
		Top:         nn.NewMLP(topSizes, rng),
		Interaction: it,
		Tables:      tables,
		opt:         nn.NewSGD(cfg.LR),
		clock:       obs.System(),
		order:       claimOrder(tables),
	}
	m.params = m.MLPParams()
	return m, nil
}

// checkBatch validates batch/table agreement.
func (m *Model) checkBatch(b *data.Batch) error {
	if len(b.Sparse) != len(m.Tables) {
		return fmt.Errorf("dlrm: batch has %d sparse features, model has %d tables", len(b.Sparse), len(m.Tables))
	}
	if b.Dense.Cols != m.Cfg.NumDense {
		return fmt.Errorf("dlrm: batch has %d dense features, model wants %d", b.Dense.Cols, m.Cfg.NumDense)
	}
	return nil
}

// Forward computes logits (batch×1) for a batch.
func (m *Model) Forward(b *data.Batch) *tensor.Matrix {
	if err := m.checkBatch(b); err != nil {
		panic(err)
	}
	z0 := m.Bottom.Forward(b.Dense)
	x := m.Interaction.Forward(z0, m.lookups(b))
	return m.Top.Forward(x)
}

// lookups runs every table's Lookup for the batch, as one table stage, into
// the model's reused result slice.
func (m *Model) lookups(b *data.Batch) []*tensor.Matrix {
	if m.embs == nil {
		m.embs = make([]*tensor.Matrix, len(m.Tables))
	}
	m.runTables(b, nil)
	return m.embs
}

// Predict returns CTR probabilities for a batch.
func (m *Model) Predict(b *data.Batch) []float32 {
	logits := m.Forward(b)
	return nn.SigmoidSlice(logits.Data)
}

// ApplyStep applies the accumulated MLP gradients with SGD and clears them.
func (m *Model) ApplyStep() {
	m.opt.Step(m.params)
}

// TrainStep is one training step: forward, loss, backward, every table's
// Update (tables own their sparse optimizers) and the MLPs' SGD step. It
// returns the batch loss and adds the step's embed/dense wall-time split to
// the model's Timing accumulator, measured against the model's clock (see
// SetClock). The lookups and the updates each run as one table stage.
func (m *Model) TrainStep(b *data.Batch) float32 {
	if err := m.checkBatch(b); err != nil {
		panic(err)
	}
	// Six clock reads cut the step into dense, embed, dense, embed, dense.
	clock := m.clock
	t0 := clock.Now()
	z0 := m.Bottom.Forward(b.Dense)

	t1 := clock.Now()
	embs := m.lookups(b)

	t2 := clock.Now()
	x := m.Interaction.Forward(z0, embs)
	logits := m.Top.Forward(x)
	loss, dLogits := nn.BCEWithLogitsInto(m.dLogits, logits, b.Labels)
	m.dLogits = dLogits
	dx := m.Top.Backward(dLogits)
	dDense, dEmbs := m.Interaction.Backward(dx)
	m.Bottom.Backward(dDense)

	t3 := clock.Now()
	m.runTables(b, dEmbs)

	t4 := clock.Now()
	m.ApplyStep()
	t5 := clock.Now()

	m.timing.Embed += t2.Sub(t1) + t4.Sub(t3)
	m.timing.Dense += t1.Sub(t0) + t3.Sub(t2) + t5.Sub(t4)
	return loss
}

// MLPParams returns the dense parameters (bottom and top towers).
func (m *Model) MLPParams() []*nn.Param {
	return append(m.Bottom.Params(), m.Top.Params()...)
}

// MLPBytes returns the dense-parameter footprint, used by the hw model to
// charge all-reduce traffic.
func (m *Model) MLPBytes() int64 {
	var n int64
	for _, p := range m.MLPParams() {
		n += int64(len(p.Value.Data)) * 4
	}
	return n
}

// EmbeddingBytes sums the footprint of all embedding tables.
func (m *Model) EmbeddingBytes() int64 {
	var n int64
	for _, t := range m.Tables {
		n += t.FootprintBytes()
	}
	return n
}
