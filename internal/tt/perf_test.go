package tt

import (
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/workertest"
)

// trainOneStep runs one Lookup/Update cycle — the steady-state training
// step of the DLRM embedding layer.
func trainOneStep(tbl *Table, indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	out := tbl.Lookup(indices, offsets)
	copy(dOut.Data, out.Data) // L = ½Σout² gradient, no allocation
	tbl.Update(indices, offsets, dOut, lr)
}

// TestLookupUpdateZeroAllocSteadyState pins the tentpole allocation
// contract: after warmup, a full Eff-TT Lookup/Update training step through
// the arena cache performs zero heap allocations, at one worker and at the
// host's width.
func TestLookupUpdateZeroAllocSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	tbl := newTestTable(t, 400)
	r := tensor.NewRNG(401)
	indices, offsets := randomBatch(r, tbl.NumRows(), 16, 5)
	dOut := tensor.New(len(offsets), tbl.Dim())

	workertest.Each(t, func(workers int) {
		// Warmup: grows every arena buffer to batch size.
		for i := 0; i < 3; i++ {
			trainOneStep(tbl, indices, offsets, dOut, 0.01)
		}
		allocs := testing.AllocsPerRun(20, func() {
			trainOneStep(tbl, indices, offsets, dOut, 0.01)
		})
		if allocs != 0 {
			t.Fatalf("steady-state Lookup/Update allocated %v times per step at %d workers, want 0", allocs, workers)
		}
	})
}

// TestForwardZeroAllocVariantsSteadyState checks the arena path stays
// allocation-free across option combinations that exercise the batch-local
// prefix buffer, the no-dedup identity WorkOf and the backward's own
// per-prefix P₁₂ scratch (no reuse buffer).
func TestForwardZeroAllocVariantsSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cases := []struct {
		name string
		opts Options
	}{
		{"batch-local-buffer", EffOptions()},
		{"no-dedup-identity-workof", Options{ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: true}},
		{"no-reuse-buffer", Options{InAdvanceAgg: true, FusedUpdate: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := newTestTable(t, 402)
			tbl.Opts = tc.opts
			r := tensor.NewRNG(403)
			indices, offsets := randomBatch(r, tbl.NumRows(), 16, 5)
			dOut := tensor.New(len(offsets), tbl.Dim())
			workertest.Each(t, func(workers int) {
				for i := 0; i < 3; i++ {
					trainOneStep(tbl, indices, offsets, dOut, 0.01)
				}
				allocs := testing.AllocsPerRun(20, func() {
					trainOneStep(tbl, indices, offsets, dOut, 0.01)
				})
				if allocs != 0 {
					t.Fatalf("steady-state step allocated %v times at %d workers, want 0", allocs, workers)
				}
			})
		})
	}
}

// TestIdentityWorkOfSkipped pins the satellite: without deduplication the
// forward pass must not materialize an identity WorkOf.
func TestIdentityWorkOfSkipped(t *testing.T) {
	tbl := newTestTable(t, 404)
	tbl.Opts = Options{ReusePrefix: true}
	tbl.Lookup([]int{3, 3, 9}, []int{0, 2})
	cache := tbl.arena
	if cache.WorkOf != nil {
		t.Fatalf("WorkOf should be nil (identity) without dedup, got len %d", len(cache.WorkOf))
	}
	if len(cache.WorkIdx) != 3 {
		t.Fatalf("WorkIdx should alias indices, got len %d", len(cache.WorkIdx))
	}
}

// BenchmarkLookupUpdateStep measures the steady-state Eff-TT training step
// through the arena cache (the elrec-bench ttcore experiment's unit).
func BenchmarkLookupUpdateStep(b *testing.B) {
	shape, err := NewShape(50000, 32, 16)
	if err != nil {
		b.Fatal(err)
	}
	tbl := NewTable(shape, tensor.NewRNG(405), 0)
	r := tensor.NewRNG(406)
	indices, offsets := randomBatch(r, tbl.NumRows(), 256, 4)
	dOut := tensor.New(len(offsets), tbl.Dim())
	trainOneStep(tbl, indices, offsets, dOut, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainOneStep(tbl, indices, offsets, dOut, 0.01)
	}
}

// BenchmarkForwardEff measures the steady-state Eff-TT forward pass.
func BenchmarkForwardEff(b *testing.B) {
	shape, err := NewShape(50000, 32, 16)
	if err != nil {
		b.Fatal(err)
	}
	tbl := NewTable(shape, tensor.NewRNG(407), 0)
	r := tensor.NewRNG(408)
	indices, offsets := randomBatch(r, tbl.NumRows(), 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(indices, offsets)
	}
}
