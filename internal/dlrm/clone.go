package dlrm

import (
	"errors"
	"fmt"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/tt"
)

// ErrNotServable reports a table type CloneForServing does not know how to
// replicate safely for concurrent inference.
var ErrNotServable = errors.New("dlrm: table not servable")

// CloneForServing returns a read-path replica of the model for concurrent
// inference. The clone owns every piece of mutable forward state — MLP layer
// scratch, interaction buffers, the per-step lookup slice, and each Eff-TT
// table's arena and prefix memo — while sharing only data that is immutable
// or self-serialized during serving:
//
//   - dense MLP parameters are deep-copied (nn.MLP.Clone), so the clone's
//     Forward never touches the source's layer buffers;
//   - *tt.Table becomes an arena-owning replica over shared read-only cores
//     (tt.Table.CloneForServing), the only place prefix products are kept
//     across batches;
//   - *embedding.Bag / *embedding.AdagradBag are shared as-is: their Lookup
//     is read-only and allocates fresh output.
//
// Serving scores a clone through ScoreGroups, whose scratch (ScoreScratch)
// belongs to the caller — serve.Ranker, one per clone — not to the model.
// ScoreGroups holds each context table's Lookup result across the chunks of
// a micro-batch; every table kind above allows it: a tt.Table replica owns
// its result until its own next Lookup, the others return fresh rows.
//
// Any other table type yields ErrNotServable. The sharing contract is
// read-only: while any clone serves traffic, neither the source model nor any
// clone may train (Update/Backward; a *tt.Table replica panics if asked to).
// Train a new version and re-clone to update.
func (m *Model) CloneForServing() (*Model, error) {
	tables := make([]Table, len(m.Tables))
	for i, t := range m.Tables {
		switch tbl := t.(type) {
		case *tt.Table:
			tables[i] = tbl.CloneForServing()
		case *embedding.Bag, *embedding.AdagradBag:
			tables[i] = t
		default:
			return nil, fmt.Errorf("%w: table %d is %T", ErrNotServable, i, t)
		}
	}
	return &Model{
		Cfg:         m.Cfg,
		Bottom:      m.Bottom.Clone(),
		Top:         m.Top.Clone(),
		Interaction: nn.NewInteraction(m.Cfg.EmbDim, len(tables)),
		Tables:      tables,
		opt:         nn.NewSGD(m.Cfg.LR),
		clock:       m.clock,
	}, nil
}
