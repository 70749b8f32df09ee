package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// TestCheckpointBytesIndependentOfWorkerCount is the step-level
// worker-count rule: a run's checkpoint is byte-identical whether its steps
// ran on 1, 2 or 4 executors. It trains two systems a few dozen steps at
// each count — one shaped like the train_tt benchmark (device-resident
// Eff-TT tables at rank = dim = 64, batch 128, where the TT passes, the
// reuse-buffer fill and the dense towers' row splits all dispatch over the
// pool) and one like train_host at a tenth of its rows (every table behind
// the pipelined ps path, with lookahead) — so no dispatch may move a bit
// anywhere in a step.
func TestCheckpointBytesIndependentOfWorkerCount(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.Workers())
	device := DefaultConfig(data.TerabyteSpec(0.01))
	device.Model.EmbDim, device.Rank = 64, 64
	device.ProfileBatches = 4

	host := DefaultConfig(data.TerabyteSpec(0.001))
	host.Model.EmbDim = 32
	host.TTThreshold = -1
	host.Reorder = false
	host.Device = hw.Device{Name: "none", HBMBytes: 16, ComputeScale: 1}
	host.HBMReserve = 0
	host.Lookahead = 16

	for _, run := range []struct {
		name  string
		cfg   Config
		batch int
	}{{"train_tt", device, 128}, {"train_host", host, 256}} {
		var want []byte
		for _, workers := range []int{1, 2, 4} {
			tensor.SetMaxWorkers(workers)
			got := trainedCheckpoint(t, run.cfg, 24, run.batch)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the checkpoint after %d workers differs from the one-worker run's", run.name, workers)
			}
		}
	}
}

// trainedCheckpoint builds a system from cfg, trains it steps steps and
// returns its checkpoint's bytes.
func trainedCheckpoint(t *testing.T, cfg Config, steps, batch int) []byte {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if host := sys.Pipeline != nil; host != (cfg.TTThreshold < 0) {
		t.Fatalf("TT threshold %d built a system with host tables = %v", cfg.TTThreshold, host)
	}
	if _, err := sys.TrainContext(context.Background(), 0, steps, batch); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := sys.SaveCheckpoint(path, steps); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
