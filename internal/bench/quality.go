package bench

import (
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// qualitySeeds are the data seeds the quality experiment trains over: seed
// s replaces a preset's Seed with Seed+s, so each seed is a different draw
// of the same synthetic distribution.
var qualitySeeds = []int{1, 2, 3, 4, 5}

// qualityEvalBatches is how many held-out batches both systems of a seed are
// scored on, from iteration TrainSteps+1.
const qualityEvalBatches = 10

// qualityGaps are the metrics whose EL-Rec − DLRM gap the experiment
// reports, in column order: accuracy in points, AUC, and log loss.
var qualityGaps = []string{"acc pp", "AUC", "log loss"}

// quality is the paired-seed quality gate: for each dataset and data seed it
// trains DLRM (no TT table) and EL-Rec (Eff-TT tables with reordering) on the
// same batches, scores both on the same held-out batches, and reports the
// per-seed gaps EL-Rec − DLRM in accuracy, AUC and log loss. Each dataset
// ends with two rows: the mean gap, and a 95 % percentile-bootstrap
// interval of that mean. Pairing on the data removes the seed's own
// difficulty from the gap, so its spread is the tensorization's, not the
// data's.
func quality(sc Scale) *Result {
	r := &Result{
		ID:    "quality",
		Title: "paired-seed quality: EL-Rec − DLRM on the same held-out batches",
		Header: []string{"dataset", "seed",
			"acc DLRM", "acc EL-Rec", "gap acc pp",
			"AUC DLRM", "AUC EL-Rec", "gap AUC",
			"logloss DLRM", "logloss EL-Rec", "gap logloss"},
	}
	evalStart := sc.TrainSteps + 1
	for _, base := range datasets(sc) {
		gaps := make([][]float64, len(qualityGaps))
		for _, seed := range qualitySeeds {
			spec := base
			spec.Seed += uint64(seed)
			d, err := data.New(spec)
			if err != nil {
				panic(err)
			}
			dl := trainedSystem(sc, d, -1, tt.Options{}, false)
			el := trainedSystem(sc, d, sc.TTThresholdRows, tt.EffOptions(), true)
			accD, aucD, llD := dl.EvaluateLoss(evalStart, qualityEvalBatches, sc.Batch)
			accE, aucE, llE := el.EvaluateLoss(evalStart, qualityEvalBatches, sc.Batch)
			g := []float64{100 * (accE - accD), aucE - aucD, llE - llD}
			for m := range gaps {
				gaps[m] = append(gaps[m], g[m])
			}
			r.addRow(base.Name, fmt.Sprint(seed),
				f4(100*accD), f4(100*accE), f4(g[0]),
				f5(aucD), f5(aucE), f5(g[1]),
				f5(llD), f5(llE), f5(g[2]))
		}
		mean, ci := []string{base.Name, "mean"}, []string{base.Name, "ci95"}
		for _, g := range gaps {
			lo, hi := bootstrapMeanCI(g, 0x9A1E)
			mean = append(mean, "", "", f5(meanOf(g)))
			ci = append(ci, "", "", fmt.Sprintf("%s..%s", f5(lo), f5(hi)))
		}
		r.addRow(mean...)
		r.addRow(ci...)
	}
	r.addNote("%d training steps, batch %d, dim %d, rank %d, TT threshold %d rows; data seeds %v (preset seed + s); %d held-out batches from iteration %d",
		sc.TrainSteps, sc.Batch, sc.EmbDim, sc.Rank, sc.TTThresholdRows, qualitySeeds, qualityEvalBatches, evalStart)
	r.addNote("gaps are EL-Rec − DLRM per seed: negative accuracy/AUC and positive log-loss gaps are EL-Rec's quality cost")
	return r
}

// qualityResamples is the bootstrap's resample count.
const qualityResamples = 2000

// bootstrapMeanCI returns the 2.5th and 97.5th percentiles of the mean of xs
// over qualityResamples resamples with replacement, drawn from a stream
// seeded with seed.
func bootstrapMeanCI(xs []float64, seed uint64) (lo, hi float64) {
	rng := tensor.NewRNG(seed)
	means := make([]float64, qualityResamples)
	for b := range means {
		var sum float64
		for range xs {
			sum += xs[rng.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	slices.Sort(means)
	return means[qualityResamples*25/1000], means[qualityResamples*975/1000-1]
}

// meanOf returns the arithmetic mean of xs.
func meanOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f5(v float64) string { return fmt.Sprintf("%.5f", v) }
