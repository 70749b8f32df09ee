package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/reorder"
)

// extOptim is an extension experiment: SGD vs Adagrad convergence of the
// full EL-Rec system (the paper trains with SGD; production DLRM commonly
// uses Adagrad for embeddings).
func extOptim(sc Scale) *Result {
	spec := data.KaggleSpec(sc.DatasetScale)
	d, err := data.New(spec)
	if err != nil {
		panic(err)
	}
	r := &Result{
		ID:     "ext-optim",
		Title:  "EL-Rec convergence: SGD vs Adagrad embeddings",
		Header: []string{"checkpoint", "SGD loss", "Adagrad loss"},
	}
	run := func(adagrad bool) []float64 {
		cfg := core.DefaultConfig(spec)
		cfg.Model = modelConfig(spec, sc)
		if adagrad {
			// Adagrad's first step moves every touched entry by ±lr (the
			// accumulator equals the squared gradient), so it needs a far
			// smaller learning rate than SGD.
			cfg.Model.LR = 0.05
		}
		cfg.Rank = sc.Rank
		cfg.TTThreshold = sc.TTThresholdRows
		cfg.Adagrad = adagrad
		cfg.ProfileBatches, cfg.ProfileBatchSize = 8, 512
		cfg.Metrics = sc.Metrics
		sys, err := core.BuildWithDataset(cfg, d)
		if err != nil {
			panic(err)
		}
		curve := sys.Train(0, sc.TrainSteps, sc.Batch)
		return curve.Smoothed(max(1, sc.TrainSteps/10))
	}
	sgd := run(false)
	ada := run(true)
	points := 8
	for p := 1; p <= points; p++ {
		i := p*sc.TrainSteps/points - 1
		r.AddRow(fmt.Sprintf("%d", i+1), f2(sgd[i]), f2(ada[i]))
	}
	r.AddNote("kaggle-like, batch %d, %d steps; SGD lr 1.0, Adagrad lr 0.05; extension — not a paper figure", sc.Batch, sc.TrainSteps)
	return r
}

// extHotRatio is an extension experiment: how the reordering hyperparameter
// Hot_ratio (Algorithm 2) affects the prefix sharing the Eff-TT reuse buffer
// feeds on, measured as unique TT prefixes per held-out batch.
func extHotRatio(sc Scale) *Result {
	rows := scaledRows(2_000_000, sc, 8192)
	spec := singleTableSpec(rows, 3003)
	d, err := data.New(spec)
	if err != nil {
		panic(err)
	}
	const profile = 30
	counts := make([]int64, rows)
	var batches [][]int
	for it := 0; it < profile; it++ {
		col := d.Batch(it, sc.Batch).Sparse[0]
		batches = append(batches, col)
		for _, idx := range col {
			counts[idx]++
		}
	}
	// m3 approximates the third TT-core length of this table.
	m3 := 1
	for m3*m3*m3 < rows {
		m3++
	}
	uniquePrefixes := func(indices []int) int {
		pfx := make([]int, len(indices))
		for i, idx := range indices {
			pfx[i] = idx / m3
		}
		uniq, _ := embedding.Unique(pfx)
		return len(uniq)
	}
	baseline := 0
	var heldOut [][]int
	for it := profile; it < profile+10; it++ {
		col := d.Batch(it, sc.Batch).Sparse[0]
		heldOut = append(heldOut, col)
		baseline += uniquePrefixes(col)
	}

	r := &Result{
		ID:     "ext-hotratio",
		Title:  "index reordering: unique TT prefixes vs Hot_ratio",
		Header: []string{"hot ratio", "unique prefixes / 10 batches", "reduction"},
	}
	r.AddRow("no reorder", fmt.Sprintf("%d", baseline), "-")
	for _, hot := range []float64{0, 0.01, 0.05, 0.20, 0.50} {
		bij, err := reorder.Build(counts, batches, reorder.Config{HotRatio: hot})
		if err != nil {
			panic(err)
		}
		total := 0
		for _, col := range heldOut {
			total += uniquePrefixes(bij.Apply(col))
		}
		r.AddRow(fmt.Sprintf("%.2f", hot), fmt.Sprintf("%d", total),
			fmt.Sprintf("%.1f%%", 100*(1-float64(total)/float64(baseline))))
	}
	r.AddNote("table %d rows, batch %d, m3=%d; extension — sweeps Algorithm 2's Hot_ratio", rows, sc.Batch, m3)
	return r
}
