package bench

import (
	"fmt"
	"time"

	"repro/internal/tensor"
	"repro/internal/tt"
)

// extTTDepth is an extension experiment beyond the paper: it sweeps the
// number of TT cores d (the paper and TT-Rec fix d = 3; TT-Rec's appendix
// discusses d = 4) and reports the compression/latency trade-off of the
// general-d table — deeper factorization compresses harder but multiplies
// the lookup chain length.
func extTTDepth(sc Scale) *Result {
	rows := scaledRows(5_000_000, sc, 20_000)
	r := &Result{
		ID:     "ext-ttdepth",
		Title:  "general-d TT: compression vs lookup latency",
		Header: []string{"d", "params (K)", "compression", "lookup ms/batch", "vs dense MB"},
	}
	denseMB := float64(rows) * float64(sc.EmbDim) * 4 / 1e6
	w := newTableWorkload(rows, sc.Steps, sc.Batch, 2001)
	for _, depth := range []int{2, 3, 4} {
		shape, err := tt.NewGeneralShape(rows, sc.EmbDim, depth, sc.Rank)
		if err != nil {
			panic(err)
		}
		tbl := tt.NewGeneralTable(shape, tensor.NewRNG(9), 0.05)
		// Warm then measure pooled lookups over the workload batches.
		tbl.Lookup(w.raw[0], w.offsets)
		elapsed := minOf(3, func() time.Duration {
			return timeIt(func() {
				for _, b := range w.raw {
					tbl.Lookup(b, w.offsets)
				}
			})
		})
		per := float64(elapsed.Microseconds()) / 1000 / float64(len(w.raw))
		r.AddRow(fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", shape.NumParams()/1000),
			fx(shape.CompressionRatio()),
			f2(per),
			f2(denseMB))
	}
	r.AddNote("table %d rows, dim %d, rank %d, batch %d; extension — not a paper figure", rows, sc.EmbDim, sc.Rank, sc.Batch)
	return r
}
