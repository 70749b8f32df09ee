package bench

import (
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/reorder"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// tableWorkload is a standalone embedding-table training workload: batches
// of Zipf-skewed, group-local indices over one table, with a reordered
// variant generated by the §IV bijection.
type tableWorkload struct {
	rows      int
	offsets   []int
	raw       [][]int // per iteration
	reordered [][]int
}

// newTableWorkload generates iters batches of the given size plus the
// index-reordered copies (the bijection is built from a disjoint profile
// prefix, as offline preprocessing would).
func newTableWorkload(rows, iters, batch int, seed uint64) *tableWorkload {
	d, err := data.New(singleTableSpec(rows, seed))
	if err != nil {
		panic(err)
	}
	w := &tableWorkload{rows: rows, offsets: make([]int, batch)}
	for s := range w.offsets {
		w.offsets[s] = s
	}
	const profile = 20
	counts := make([]int64, rows)
	var profileBatches [][]int
	for it := 0; it < profile; it++ {
		col := d.Batch(it, batch).Sparse[0]
		profileBatches = append(profileBatches, col)
		for _, idx := range col {
			counts[idx]++
		}
	}
	bij, err := reorder.Build(counts, profileBatches, reorder.Config{HotRatio: 0.05})
	if err != nil {
		panic(err)
	}
	for it := 0; it < iters; it++ {
		col := d.Batch(profile+it, batch).Sparse[0]
		w.raw = append(w.raw, col)
		w.reordered = append(w.reordered, bij.Apply(col))
	}
	return w
}

// newTT builds a TT table for the workload with the given options.
func (w *tableWorkload) newTT(dim, rank int, opts tt.Options) *tt.Table {
	shape, err := tt.NewShape(w.rows, dim, rank)
	if err != nil {
		panic(err)
	}
	tbl := tt.NewTable(shape, tensor.NewRNG(42), 0.05)
	tbl.Opts = opts
	return tbl
}

// minOf runs fn reps times and returns the minimum duration — the standard
// defense against single-core scheduling noise on short measurements.
func minOf(reps int, fn func() time.Duration) time.Duration {
	best := fn()
	for i := 1; i < reps; i++ {
		if d := fn(); d < best {
			best = d
		}
	}
	return best
}

// measureLookup times forward-only lookups over the workload (min of 3).
func measureLookup(tbl *tt.Table, batches [][]int, offsets []int, warm int) time.Duration {
	// Lookup is the steady-state training path: the table-owned arena, with
	// Algorithm 1's reuse buffer rebuilt from each batch's own indices when
	// the options enable reuse (only a CloneForServing replica keeps products
	// across batches). Warmup grows the arena so the timed region sees the
	// steady state.
	for i := 0; i < warm && i < len(batches); i++ {
		tbl.Lookup(batches[i], offsets)
	}
	return minOf(3, func() time.Duration {
		return timeIt(func() {
			for _, b := range batches {
				tbl.Lookup(b, offsets)
			}
		})
	})
}

// measureBackward times the backward+update passes on the path training
// runs: Lookup fills the table's arena outside the timed region, Update
// consumes it inside.
func measureBackward(tbl *tt.Table, batches [][]int, offsets []int, dOut *tensor.Matrix, warm int) time.Duration {
	for i := 0; i < warm && i < len(batches); i++ {
		tbl.Lookup(batches[i], offsets)
		tbl.Update(batches[i], offsets, dOut, 1e-4)
	}
	return minOf(3, func() time.Duration {
		var total time.Duration
		for _, b := range batches {
			tbl.Lookup(b, offsets)
			total += timeIt(func() { tbl.Update(b, offsets, dOut, 1e-4) })
		}
		return total
	})
}

// fig17 regenerates Figure 17: Eff-TT lookup latency vs TT-Rec across batch
// sizes, with the contribution of intermediate-result reuse and index
// reordering separated.
func fig17(sc Scale) *Result {
	rows := scaledRows(5_000_000, sc, 20_000)
	batchSizes := []int{512, 1024, 2048, 4096}
	r := &Result{
		ID:     "fig17",
		Title:  "Eff-TT lookup latency (ms/batch) vs batch size",
		Header: []string{"batch", "TT-Rec", "+reuse", "+reuse+reorder", "speedup(reuse)", "speedup(total)"},
	}
	for _, bs := range batchSizes {
		w := newTableWorkload(rows, sc.Steps, bs, 1001)
		naive := w.newTT(sc.EmbDim, sc.Rank, tt.NaiveOptions())
		reuse := w.newTT(sc.EmbDim, sc.Rank, tt.Options{DedupIndices: true, ReusePrefix: true})

		tNaive := measureLookup(naive, w.raw, w.offsets, sc.WarmSteps)
		tReuse := measureLookup(reuse, w.raw, w.offsets, sc.WarmSteps)
		tReorder := measureLookup(reuse, w.reordered, w.offsets, sc.WarmSteps)

		per := func(d time.Duration) float64 {
			return float64(d.Microseconds()) / 1000 / float64(len(w.raw))
		}
		r.addRow(fmt.Sprintf("%d", bs),
			f2(per(tNaive)), f2(per(tReuse)), f2(per(tReorder)),
			fx(float64(tNaive)/float64(tReuse)),
			fx(float64(tNaive)/float64(tReorder)))
	}
	r.addNote("table %d rows, dim %d, rank %d; paper: 1.83x average, growing with batch size", rows, sc.EmbDim, sc.Rank)
	r.addNote("+reuse is Algorithm 1's per-batch reuse buffer: no prefix product is kept from one batch to the next")
	return r
}

// fig18 regenerates Figure 18: Eff-TT backward latency vs TT-Rec across
// batch sizes, separating fused update, in-advance gradient aggregation and
// index reordering.
func fig18(sc Scale) *Result {
	rows := scaledRows(5_000_000, sc, 20_000)
	batchSizes := []int{512, 1024, 2048, 4096}
	r := &Result{
		ID:     "fig18",
		Title:  "Eff-TT backward latency (ms/batch) vs batch size",
		Header: []string{"batch", "TT-Rec", "+fused", "+agg", "+agg+reorder", "speedup(total)"},
	}
	for _, bs := range batchSizes {
		w := newTableWorkload(rows, sc.Steps, bs, 1002)
		dOut := gradFor(bs, sc.EmbDim, 5)

		build := func(opts tt.Options) *tt.Table { return w.newTT(sc.EmbDim, sc.Rank, opts) }
		base := tt.Options{DedupIndices: true, ReusePrefix: true}
		naive := build(tt.Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: false, FusedUpdate: false})
		fused := build(tt.Options{DedupIndices: base.DedupIndices, ReusePrefix: base.ReusePrefix, InAdvanceAgg: false, FusedUpdate: true})
		agg := build(tt.EffOptions())

		tNaive := measureBackward(naive, w.raw, w.offsets, dOut, sc.WarmSteps)
		tFused := measureBackward(fused, w.raw, w.offsets, dOut, sc.WarmSteps)
		tAgg := measureBackward(agg, w.raw, w.offsets, dOut, sc.WarmSteps)
		tReorder := measureBackward(agg, w.reordered, w.offsets, dOut, sc.WarmSteps)

		per := func(d time.Duration) float64 {
			return float64(d.Microseconds()) / 1000 / float64(len(w.raw))
		}
		r.addRow(fmt.Sprintf("%d", bs),
			f2(per(tNaive)), f2(per(tFused)), f2(per(tAgg)), f2(per(tReorder)),
			fx(float64(tNaive)/float64(tReorder)))
	}
	r.addNote("table %d rows, dim %d, rank %d; paper: 1.70x average (1.47x-2.10x)", rows, sc.EmbDim, sc.Rank)
	return r
}

// fig14 regenerates Figure 14: the optimization breakdown on standalone
// embedding-table training — throughput with each optimization disabled in
// turn, across table sizes.
func fig14(sc Scale) *Result {
	baseRows := []int{2_500_000, 5_000_000, 10_000_000}
	r := &Result{
		ID:    "fig14",
		Title: "optimization breakdown: table training throughput (samples/s)",
		Header: []string{"rows", "EL-Rec", "w/o reuse", "w/o agg", "w/o reorder",
			"drop(reuse)", "drop(agg)", "drop(reorder)"},
	}
	for _, base := range baseRows {
		rows := scaledRows(base, sc, 10_000)
		w := newTableWorkload(rows, sc.Steps, sc.Batch, 1003)
		dOut := gradFor(sc.Batch, sc.EmbDim, 6)

		// The four variants are timed in alternation, best of fifteen rounds
		// each. A pass is short (about a millisecond at quick scale), so a
		// variant timed on its own would carry whatever state the host was
		// in at that moment: a cold worker pool for the first, clock drift
		// for the last.
		variants := []struct {
			opts    tt.Options
			batches [][]int
		}{
			{tt.EffOptions(), w.reordered},
			{tt.Options{InAdvanceAgg: true, FusedUpdate: true}, w.reordered},
			{tt.Options{DedupIndices: true, ReusePrefix: true, FusedUpdate: true}, w.reordered},
			{tt.EffOptions(), w.raw},
		}
		tables := make([]*tt.Table, len(variants))
		for v, vr := range variants {
			tables[v] = w.newTT(sc.EmbDim, sc.Rank, vr.opts)
			for i := 0; i < sc.WarmSteps && i < len(vr.batches); i++ {
				tables[v].Lookup(vr.batches[i], w.offsets)
				tables[v].Update(vr.batches[i], w.offsets, dOut, 1e-4)
			}
		}
		best := make([]time.Duration, len(variants))
		for round := 0; round < 15; round++ {
			for v, vr := range variants {
				d := timeIt(func() {
					for _, b := range vr.batches {
						tables[v].Lookup(b, w.offsets)
						tables[v].Update(b, w.offsets, dOut, 1e-4)
					}
				})
				if round == 0 || d < best[v] {
					best[v] = d
				}
			}
		}
		full, noReuse, noAgg, noReorder := best[0], best[1], best[2], best[3]

		samples := float64(sc.Steps * sc.Batch)
		tp := func(d time.Duration) float64 { return samples / d.Seconds() }
		drop := func(d time.Duration) string {
			return fmt.Sprintf("%.0f%%", 100*(1-float64(full)/float64(d)))
		}
		r.addRow(fmt.Sprintf("%dM", base/1_000_000),
			fmt.Sprintf("%.0f", tp(full)),
			fmt.Sprintf("%.0f", tp(noReuse)),
			fmt.Sprintf("%.0f", tp(noAgg)),
			fmt.Sprintf("%.0f", tp(noReorder)),
			drop(noReuse), drop(noAgg), drop(noReorder))
	}
	r.addNote("rows scaled by %g (floor 10k); paper: agg −52%%, reorder −13%%, reuse −10%%", sc.DatasetScale)
	return r
}

// scaledRows applies the dataset scale to a paper-scale row count with a
// floor.
func scaledRows(base int, sc Scale, floor int) int {
	rows := int(float64(base) * sc.DatasetScale)
	if rows < floor {
		rows = floor
	}
	return rows
}
