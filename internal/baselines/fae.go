// Package baselines implements the competing systems of the paper's
// evaluation: FAE's hot-embedding scheduling, HugeCTR-style row-sharded
// (model-parallel) tables and TorchRec-style column-sharded tables. Each
// baseline performs the real embedding math (bit-equivalent to a single
// uncompressed table) and additionally counts the bytes its placement
// strategy would move between devices; the experiment harness converts the
// byte counts into simulated time under the hw model.
package baselines

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/dlrm"
)

// FAE schedules work the way the FAE system does: embedding rows are split
// into a hot set (cached in GPU HBM) and a cold remainder (host memory).
// FAE's preprocessing segregates samples into hot minibatches (every index
// hot — trained entirely on the GPU) and cold minibatches (trained through
// the host path). The paper's profiling found ~25% cold batches; the
// per-sample classification here reproduces that split on the synthetic
// datasets, and the harness charges the host path only for the cold share.
type FAE struct {
	Model  *dlrm.Model
	hotSet []map[int]struct{} // per table

	HotSamples  int64
	ColdSamples int64
	// ColdBytes counts embedding rows the cold share moves host→device and
	// gradients moved back (the traffic EL-Rec avoids).
	ColdBytes int64
}

// NewFAE wraps a model (with uncompressed tables) and computes per-table hot
// sets: the smallest prefix of rows in descending access frequency whose
// cumulative access share reaches hotFrac.
func NewFAE(model *dlrm.Model, counts [][]int64, hotFrac float64) (*FAE, error) {
	if len(counts) != len(model.Tables) {
		return nil, fmt.Errorf("baselines: %d count vectors for %d tables", len(counts), len(model.Tables))
	}
	if hotFrac <= 0 || hotFrac > 1 {
		return nil, fmt.Errorf("baselines: hot fraction %v outside (0,1]", hotFrac)
	}
	f := &FAE{Model: model, hotSet: make([]map[int]struct{}, len(counts))}
	for t, cnt := range counts {
		if len(cnt) != model.Tables[t].NumRows() {
			return nil, fmt.Errorf("baselines: table %d counts len %d != rows %d", t, len(cnt), model.Tables[t].NumRows())
		}
		order := make([]int, len(cnt))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return cnt[order[a]] > cnt[order[b]] })
		var total, run float64
		for _, c := range cnt {
			total += float64(c)
		}
		set := make(map[int]struct{})
		for _, idx := range order {
			if total > 0 && run/total >= hotFrac {
				break
			}
			set[idx] = struct{}{}
			run += float64(cnt[idx])
		}
		f.hotSet[t] = set
	}
	return f, nil
}

// sampleIsHot reports whether sample s of the batch touches only hot rows.
func (f *FAE) sampleIsHot(b *data.Batch, s int) bool {
	for t := range b.Sparse {
		if _, ok := f.hotSet[t][b.Sparse[t][s]]; !ok {
			return false
		}
	}
	return true
}

// TrainBatch trains one batch and classifies its samples: FAE's
// preprocessing would pack the hot samples into pure-GPU minibatches and
// the rest into host-path minibatches, so the returned coldFrac is the
// fraction of training that runs on the host. The cold share accounts
// host↔device transfer (and parameter-server row accesses) for the unique
// embedding rows its samples touch, each direction once.
func (f *FAE) TrainBatch(b *data.Batch) (loss float32, coldFrac float64) {
	cold := 0
	coldOf := make([]bool, b.Size())
	for s := 0; s < b.Size(); s++ {
		if f.sampleIsHot(b, s) {
			f.HotSamples++
		} else {
			f.ColdSamples++
			coldOf[s] = true
			cold++
		}
	}
	dim := int64(f.Model.Cfg.EmbDim)
	for t := range b.Sparse {
		seen := make(map[int]struct{})
		for s, idx := range b.Sparse[t] {
			if coldOf[s] {
				seen[idx] = struct{}{}
			}
		}
		f.ColdBytes += 2 * int64(len(seen)) * dim * 4
	}
	return f.Model.TrainStep(b), float64(cold) / float64(b.Size())
}
