package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/hw"
	"repro/internal/tensor/workertest"
)

// allocated returns the heap bytes and the number of allocations fn makes.
func allocated(fn func()) (bytes, mallocs int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)
}

// TestTrainEvaluateBytesIndependentOfBatchSize pins what a device-resident
// system allocates once a first 100-step call has settled its scratch at a
// batch size: the next 100-step TrainContext call allocates per step only
// the pipeline's bookkeeping (the loss curve and the call's own set-up), and
// an Evaluate call per held-out batch only its per-sample results —
// probabilities, labels and AUC's sort index and ranks, 24 bytes a sample.
// Both generate into reused storage, so neither per-step figure may grow
// with the batch size.
func TestTrainEvaluateBytesIndependentOfBatchSize(t *testing.T) {
	checkTrainEvaluateBytes(t, coreConfig(), 100)
}

// TestHostTrainEvaluateZeroAllocRecycledSlabs is the same contract on a
// host-placed system — no TT table, an HBM budget that fits no table, so
// every table trains through the parameter-server pipeline — pipelined with
// lookahead and sequential: a step's batch, gathered rows and gradients
// travel in a recycled step slab, the planner draws its streams into reused
// buffers and is kept across calls, and an out-of-step lookup gathers into
// adapter-owned scratch.
func TestHostTrainEvaluateZeroAllocRecycledSlabs(t *testing.T) {
	for _, depth := range []struct{ queue, lookahead int }{{4, 16}, {1, 0}} {
		cfg := coreConfig()
		cfg.TTThreshold = -1
		cfg.Reorder = false
		cfg.Device = hw.Device{Name: "none", HBMBytes: 16, ComputeScale: 1}
		cfg.HBMReserve = 0
		cfg.QueueDepth, cfg.Lookahead = depth.queue, depth.lookahead
		t.Logf("queue depth %d, lookahead %d", depth.queue, depth.lookahead)
		checkTrainEvaluateBytes(t, cfg, 400)
	}
}

// checkTrainEvaluateBytes runs the allocation contract above on systems
// built from cfg, at batch 32 and 256, after a first call of warmup steps,
// at one worker and at the host's width.
func checkTrainEvaluateBytes(t *testing.T, cfg Config, warmup int) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	workertest.Each(t, func(workers int) {
		t.Logf("%d workers", workers)
		checkTrainEvaluateBytesAt(t, cfg, warmup)
	})
}

// checkTrainEvaluateBytesAt is checkTrainEvaluateBytes at the current worker
// count.
func checkTrainEvaluateBytesAt(t *testing.T, cfg Config, warmup int) {
	t.Helper()

	const steps, evalBatches, resultBytesPerSample = 100, 8, 24
	const perStepBound = 1024
	ctx := context.Background()
	for _, batch := range []int{32, 256} {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if host := sys.Pipeline != nil; host != (cfg.TTThreshold < 0) {
			t.Fatalf("TT threshold %d built a system with host tables = %v", cfg.TTThreshold, host)
		}
		if _, err := sys.TrainContext(ctx, 0, warmup, batch); err != nil {
			t.Fatal(err)
		}
		sys.Evaluate(1<<20, 2, batch)

		trainBytes, trainMallocs := allocated(func() {
			if _, err := sys.TrainContext(ctx, warmup, steps, batch); err != nil {
				t.Fatal(err)
			}
		})
		if perStep := trainBytes / steps; perStep > perStepBound {
			t.Errorf("batch %d: TrainContext allocated %d bytes per step, want at most %d", batch, perStep, perStepBound)
		}
		if trainMallocs >= steps {
			t.Errorf("batch %d: TrainContext made %d allocations in %d steps: a step allocates", batch, trainMallocs, steps)
		}
		evalBytes, _ := allocated(func() { sys.Evaluate(1<<20, evalBatches, batch) })
		if perBatch := (evalBytes - resultBytesPerSample*evalBatches*int64(batch)) / evalBatches; perBatch > perStepBound {
			t.Errorf("batch %d: Evaluate allocated %d bytes per batch beyond its results, want at most %d", batch, perBatch, perStepBound)
		}
		t.Logf("batch %d: TrainContext %d B/step (%d allocations per call), Evaluate %d B/batch", batch, trainBytes/steps, trainMallocs, evalBytes/evalBatches)
	}
}
