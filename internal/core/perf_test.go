package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestTrainEvaluateBytesIndependentOfBatchSize pins what a device-resident
// system allocates once a first 100-step call has settled its scratch at a
// batch size: the next 100-step TrainContext call allocates per step only
// the pipeline's bookkeeping (the queue elements and the loss curve), and an
// Evaluate call per held-out batch only its per-sample results —
// probabilities, labels and AUC's sort index and ranks, 24 bytes a sample.
// Both generate into one reused batch, so neither per-step figure may grow
// with the batch size.
func TestTrainEvaluateBytesIndependentOfBatchSize(t *testing.T) {
	old := tensor.Workers()
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const warmup, steps, evalBatches, resultBytesPerSample = 100, 100, 8, 24
	const perStepBound = 1024
	ctx := context.Background()
	for _, batch := range []int{32, 256} {
		sys, err := Build(coreConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.TrainContext(ctx, 0, warmup, batch); err != nil {
			t.Fatal(err)
		}
		sys.Evaluate(1<<20, 2, batch)

		trainBytes := allocatedBytes(func() {
			if _, err := sys.TrainContext(ctx, warmup, steps, batch); err != nil {
				t.Fatal(err)
			}
		})
		if perStep := trainBytes / steps; perStep > perStepBound {
			t.Errorf("batch %d: TrainContext allocated %d bytes per step, want at most %d", batch, perStep, perStepBound)
		}
		evalBytes := allocatedBytes(func() { sys.Evaluate(1<<20, evalBatches, batch) })
		if perBatch := (evalBytes - resultBytesPerSample*evalBatches*int64(batch)) / evalBatches; perBatch > perStepBound {
			t.Errorf("batch %d: Evaluate allocated %d bytes per batch beyond its results, want at most %d", batch, perBatch, perStepBound)
		}
		t.Logf("batch %d: TrainContext %d B/step, Evaluate %d B/batch", batch, trainBytes/steps, evalBytes/evalBatches)
	}
}
