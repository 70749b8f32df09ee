package dlrm

import (
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// TestTrainStepZeroAllocFreshBatches is the training step's allocation
// contract at the train_tt benchmark's table mix — Terabyte at scale 0.01,
// five Eff-TT tables and 21 embedding.Bag tables, dim = rank = 64, batch 128:
// after the benchmark's eight warm-up steps, TrainStep on 100 batches it has
// never seen allocates nothing. Every table kind looks up into its own
// scratch, and per-batch scratch grows with headroom (tt's growInts) or to
// its bound (a Bag's), so fresh batches with more unique rows or prefixes
// than any before them still fit.
func TestTrainStepZeroAllocFreshBatches(t *testing.T) {
	old := tensor.Workers()
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	spec := data.TerabyteSpec(0.01)
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tables, compressed, err := BuildTables(spec.TableRows, TableSpec{Dim: 64, Rank: 64, TTThreshold: 10_000, Opts: tt.EffOptions(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if compressed != 5 {
		t.Fatalf("%d TT tables, train_tt has 5", compressed)
	}
	cfg := DefaultConfig(spec.NumDense, 64)
	cfg.LR = 1
	m, err := NewModel(cfg, tables)
	if err != nil {
		t.Fatal(err)
	}
	// Eight warm-up steps, AllocsPerRun's untimed run, then 100 counted ones.
	const warmup = 8
	batches := make([]*data.Batch, warmup+101)
	for i := range batches {
		batches[i] = d.Batch(i, 128)
	}
	for _, b := range batches[:warmup] {
		m.TrainStep(b)
	}
	k := warmup - 1
	allocs := testing.AllocsPerRun(len(batches)-warmup-1, func() {
		k++
		m.TrainStep(batches[k])
	})
	if allocs != 0 {
		t.Fatalf("TrainStep on fresh batches allocated %v times per step, want 0", allocs)
	}
}
