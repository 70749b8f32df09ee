package dlrm

import (
	"errors"
	"fmt"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/tt"
)

// errNotServable reports a table type CloneForServing does not know how to
// replicate safely for concurrent inference.
var errNotServable = errors.New("dlrm: table not servable")

// CloneForServing returns a read-path replica of the model for concurrent
// inference. The clone owns every piece of mutable forward state — MLP layer
// scratch, interaction buffers, the per-step lookup slice and each table's
// lookup scratch — while sharing only parameters that stay immutable while
// it serves:
//
//   - dense MLP parameters are deep-copied (nn.MLP.Clone), so the clone's
//     Forward never touches the source's layer buffers;
//   - *tt.Table becomes an arena-owning replica over shared read-only cores
//     (tt.Table.CloneForServing), the only place prefix products are kept
//     across batches;
//   - *embedding.Bag and *embedding.AdagradBag become a Bag view
//     (embedding.Bag.View): shared Weights, scratch of its own. Serving
//     needs no optimizer state.
//
// Every table kind follows one contract, so a replica's tables all do: a
// Lookup result is table-owned and stays valid until that table's next
// Lookup. ScoreGroups relies on it to hold each context table's result
// across the chunks of a micro-batch; its scratch (ScoreScratch) belongs to
// the caller — serve.Ranker, one per clone — not to the model.
//
// Any other table type yields errNotServable. The sharing contract is
// read-only: while any clone serves traffic, neither the source model nor any
// clone may train (Update/Backward; a *tt.Table replica panics if asked to).
// Train a new version and re-clone to update.
func (m *Model) CloneForServing() (*Model, error) {
	tables := make([]Table, len(m.Tables))
	for i, t := range m.Tables {
		switch tbl := t.(type) {
		case *tt.Table:
			tables[i] = tbl.CloneForServing()
		case *embedding.Bag:
			tables[i] = tbl.View()
		case *embedding.AdagradBag:
			tables[i] = tbl.View()
		default:
			return nil, fmt.Errorf("%w: table %d is %T", errNotServable, i, t)
		}
	}
	c := &Model{
		Cfg:         m.Cfg,
		Bottom:      m.Bottom.Clone(),
		Top:         m.Top.Clone(),
		Interaction: nn.NewInteraction(m.Cfg.EmbDim, len(tables)),
		Tables:      tables,
		opt:         nn.NewSGD(m.Cfg.LR),
		clock:       m.clock,
		order:       m.order,
	}
	c.params = c.MLPParams()
	return c, nil
}
