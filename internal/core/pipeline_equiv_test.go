package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/hw"
)

// TestCorePipelineEquivalence: a full EL-Rec system (TT device tables +
// reordering + host spill) must produce bit-identical MLP parameters under
// sequential and pipelined schedules. This is the regression test for the
// Louvain nondeterminism that once made two identical Builds train
// differently.
func TestCorePipelineEquivalence(t *testing.T) {
	spec := data.KaggleSpec(0.001)
	run := func(depth int) *System {
		cfg := DefaultConfig(spec)
		cfg.Model.EmbDim = 16
		cfg.Rank = 8
		cfg.QueueDepth = depth
		cfg.Device = hw.Device{Name: "tiny-hbm", HBMBytes: 1 << 20, ComputeScale: 1}
		cfg.HBMReserve = 0
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Train(0, 50, 64)
		return sys
	}
	seq := run(1)
	pipe := run(4)
	sp, pp := seq.Model().MLPParams(), pipe.Model().MLPParams()
	for i := range sp {
		if diff := sp[i].Value.MaxAbsDiff(pp[i].Value); diff != 0 {
			t.Fatalf("MLP param %d differs by %v", i, diff)
		}
	}
}
