package bench

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/tt"
)

// table2 regenerates Table II: the dataset statistics. Rows are printed at
// the synthetic scale plus the full-scale (scale=1) footprint the paper
// reports (59.2 GB for Criteo Terabyte at dim 128).
func table2(sc Scale) *Result {
	r := &Result{
		ID:     "table2",
		Title:  "dataset statistics",
		Header: []string{"dataset", "#samples", "#dense", "#categorical", "rows(scaled)", "emb GB (scale=1, dim=128)"},
	}
	full := []data.Spec{data.AvazuSpec(1), data.TerabyteSpec(1), data.KaggleSpec(1)}
	scaled := []data.Spec{
		data.AvazuSpec(sc.DatasetScale),
		data.TerabyteSpec(sc.DatasetScale),
		data.KaggleSpec(sc.DatasetScale),
	}
	for i, spec := range scaled {
		r.AddRow(
			spec.Name,
			fmt.Sprintf("%d", spec.Samples),
			fmt.Sprintf("%d", spec.NumDense),
			fmt.Sprintf("%d", spec.NumTables()),
			fmt.Sprintf("%d", spec.TotalRows()),
			f2(float64(full[i].EmbeddingBytes(128))/1e9),
		)
	}
	r.AddNote("cardinalities scaled by %g; paper reports 59.2 GB for Terabyte at dim 128", sc.DatasetScale)
	return r
}

// table3 regenerates Table III: embedding-table footprint of the
// uncompressed model vs the Eff-TT model (compressing tables above the
// threshold, keeping small tables dense, as §VI-A describes).
func table3(sc Scale) *Result {
	r := &Result{
		ID:     "table3",
		Title:  "embedding footprint: uncompressed vs Eff-TT",
		Header: []string{"dataset", "dense MB", "TT MB", "compression", "tables compressed"},
	}
	rule := dlrm.TableSpec{TTThreshold: sc.TTThresholdRows}
	for _, spec := range datasets(sc) {
		var denseBytes, ttBytes int64
		compressed := 0
		for _, rows := range spec.TableRows {
			denseBytes += int64(rows) * int64(sc.EmbDim) * 4
			if rule.Compressed(rows) {
				shape, err := tt.NewShape(rows, sc.EmbDim, sc.Rank)
				if err != nil {
					panic(err)
				}
				ttBytes += shape.FootprintBytes()
				compressed++
			} else {
				ttBytes += int64(rows) * int64(sc.EmbDim) * 4
			}
		}
		r.AddRow(
			spec.Name,
			f2(float64(denseBytes)/1e6),
			f2(float64(ttBytes)/1e6),
			fx(float64(denseBytes)/float64(ttBytes)),
			fmt.Sprintf("%d/%d", compressed, spec.NumTables()),
		)
	}
	r.AddNote("dim=%d rank=%d threshold=%d rows (paper compresses tables above 1M rows)", sc.EmbDim, sc.Rank, sc.TTThresholdRows)
	return r
}

// table4 regenerates Table IV: held-out prediction accuracy of DLRM, TT-Rec,
// FAE and EL-Rec on the three datasets — the tensorization must cost at most
// a fraction of a point of accuracy.
func table4(sc Scale) *Result {
	r := &Result{
		ID:     "table4",
		Title:  "prediction accuracy (%)",
		Header: []string{"dataset", "DLRM", "TT-Rec", "FAE", "EL-Rec", "AUC DLRM", "AUC EL-Rec"},
	}
	for _, spec := range datasets(sc) {
		d, err := data.New(spec)
		if err != nil {
			panic(err)
		}
		evalStart := sc.TrainSteps + 1

		build := func(thresh int, opts tt.Options, reorderOn bool) *core.System {
			cfg := core.DefaultConfig(spec)
			cfg.Model = modelConfig(spec, sc)
			cfg.Rank = sc.Rank
			cfg.TTThreshold = thresh
			cfg.Opts = opts
			cfg.Reorder = reorderOn
			cfg.ProfileBatches, cfg.ProfileBatchSize = 8, 512
			cfg.Metrics = sc.Metrics
			sys, err := core.BuildWithDataset(cfg, d)
			if err != nil {
				panic(err)
			}
			sys.Train(0, sc.TrainSteps, sc.Batch)
			return sys
		}

		dlrmSys := build(-1, tt.Options{}, false)
		ttrecSys := build(sc.TTThresholdRows, tt.NaiveOptions(), false)
		elrecSys := build(sc.TTThresholdRows, tt.EffOptions(), true)

		// FAE trains the same uncompressed model through its hot/cold
		// scheduler; accuracy matches DLRM by construction of the schedule.
		tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{Dim: sc.EmbDim, Rank: sc.Rank, TTThreshold: -1, Seed: 17})
		if err != nil {
			panic(err)
		}
		faeModel, err := dlrm.NewModel(modelConfig(spec, sc), tables)
		if err != nil {
			panic(err)
		}
		counts := make([][]int64, spec.NumTables())
		for t := range counts {
			counts[t] = d.AccessCounts(t, faeProfileBatches, sc.Batch)
		}
		fae, err := baselines.NewFAE(faeModel, counts, faeCoverage)
		if err != nil {
			panic(err)
		}
		for it := 0; it < sc.TrainSteps; it++ {
			fae.TrainBatch(d.Batch(it, sc.Batch))
		}
		var faeProbs, faeLabels []float32
		for it := 0; it < 10; it++ {
			b := d.Batch(evalStart+it, sc.Batch)
			faeProbs = append(faeProbs, faeModel.Predict(b)...)
			faeLabels = append(faeLabels, b.Labels...)
		}
		faeAcc := accuracyPct(faeProbs, faeLabels)

		accD, aucD := dlrmSys.Evaluate(evalStart, 10, sc.Batch)
		accT, _ := ttrecSys.Evaluate(evalStart, 10, sc.Batch)
		accE, aucE := elrecSys.Evaluate(evalStart, 10, sc.Batch)
		r.AddRow(spec.Name,
			f2(accD*100), f2(accT*100), f2(faeAcc), f2(accE*100),
			f2(aucD), f2(aucE))
	}
	r.AddNote("%d training steps, batch %d, dim %d, rank %d; paper finds <0.1pp accuracy loss at full scale",
		sc.TrainSteps, sc.Batch, sc.EmbDim, sc.Rank)
	return r
}

func accuracyPct(probs, labels []float32) float64 {
	correct := 0
	for i, p := range probs {
		pred := float32(0)
		if p >= 0.5 {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	if len(probs) == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(len(probs))
}
