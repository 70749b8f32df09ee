package serve

import (
	"runtime/debug"
	"testing"

	"repro/internal/dlrm"
	"repro/internal/tensor/workertest"
	"repro/internal/tt"
)

// TestScoringZeroAllocSteadyState: once the scratch has grown to the working
// shape, the grouped forward scores a micro-batch — several contexts, chunks
// that end inside a group — without heap allocation, and so does the
// replicated oracle's batch assembly, at one worker and at the host's width.
// Table 0 is an embedding.Bag context table and table 1 the Eff-TT item
// table: both look up into table-owned scratch.
func TestScoringZeroAllocSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	tables, _, err := dlrm.BuildTables(serveSpec().TableRows,
		dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 1000, Opts: tt.EffOptions(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 1.0, Seed: 4,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRanker(m, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	candidates := []int{4, 9, 1, 12, 7, 3, 0, 8}
	groups := make([]dlrm.ScoreGroup, 3)
	for g := range groups {
		groups[g] = dlrm.ScoreGroup{
			Dense: []float32{float32(g), -1, 0.2}, Sparse: []int{g * 7, 0}, Items: candidates[g:],
		}
	}
	scores := make([]float32, 8+7+6)

	b := r.NewBatcher()
	ctx := testContext()
	workertest.Each(t, func(workers int) {
		r.ScoreGroups(groups, scores) // warmup: grows the scratch to the micro-batch shape
		allocs := testing.AllocsPerRun(20, func() {
			r.ScoreGroups(groups, scores)
		})
		if allocs != 0 {
			t.Fatalf("steady-state ScoreGroups allocated %v times per call at %d workers, want 0", allocs, workers)
		}

		b.Build(ctx, candidates) // warmup: grows the scratch to batch shape
		allocs = testing.AllocsPerRun(20, func() {
			b.Build(ctx, candidates)
		})
		if allocs != 0 {
			t.Fatalf("steady-state Build allocated %v times per call at %d workers, want 0", allocs, workers)
		}
	})
}
