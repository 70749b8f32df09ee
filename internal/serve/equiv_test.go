package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// equivModel trains a small six-table model whose tables at or above 200
// rows are Eff-TT and the rest dense.
func equivModel(t *testing.T, rows []int) *dlrm.Model {
	t.Helper()
	spec := serveSpec()
	spec.TableRows = rows
	tables, _, err := dlrm.BuildTables(rows,
		dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 200, Opts: tt.EffOptions(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{16, 8}, LR: 0.5, Seed: 6,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 10; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	return m
}

// TestGroupedScoresMatchReplicatedBitForBit holds the one scoring path to its
// oracle: for every request of a micro-batch, the grouped forward's scores
// must equal, bit for bit, Predict over Batcher.Build of that request's
// candidates taken the batch size at a time — the replicated batch the context
// side used to be recomputed on. Swept over the group count, candidate counts
// around the chunk size mixed within one micro-batch (so chunks end inside
// groups and span several), the chunk size, the item feature's position and
// table kind, duplicate candidates and the kernel worker count.
func TestGroupedScoresMatchReplicatedBitForBit(t *testing.T) {
	old := tensor.Workers()
	defer tensor.SetMaxWorkers(old)

	counts := []int{0, 1, 63, 64, 65, 128, 200}
	models := []struct {
		name  string
		rows  []int
		items []int // item features to rank on: first, a middle one, last
	}{
		{"tt-item", []int{300, 60, 320, 70, 80, 340}, []int{0, 2, 5}},
		{"dense-item", []int{60, 300, 70, 320, 340, 80}, []int{0, 2, 5}},
	}
	for _, mc := range models {
		m := equivModel(t, mc.rows)
		for _, item := range mc.items {
			for _, batch := range []int{1, 16, 64} {
				r, err := NewRanker(m, item, batch)
				if err != nil {
					t.Fatal(err)
				}
				oracle := r.NewBatcher()
				// request builds context seed's request of n candidates, with
				// duplicates (the id stride wraps the item table) and the
				// context's own — ignored — value in the item slot out of
				// range for every table.
				request := func(seed, n int) (dlrm.ScoreGroup, []float32) {
					ctx := Context{Dense: []float32{0.25 * float32(seed), -1, 0.1 * float32(seed%5)}, Sparse: make([]int, len(mc.rows))}
					for tbl, rows := range mc.rows {
						ctx.Sparse[tbl] = (seed*13 + tbl*7) % rows
					}
					ctx.Sparse[item] = 1 << 30
					cands := make([]int, n)
					for i := range cands {
						cands[i] = (seed*31 + i*97) % mc.rows[item] / 2
					}
					tensor.SetMaxWorkers(1)
					var want []float32
					for lo := 0; lo < n; lo += batch {
						want = append(want, m.Predict(oracle.Build(ctx, cands[lo:min(lo+batch, n)]))...)
					}
					return dlrm.ScoreGroup{Dense: ctx.Dense, Sparse: ctx.Sparse, Items: cands}, want
				}
				for _, g := range []int{1, 2, 8} {
					for first := 0; first < len(counts); first++ {
						var groups []dlrm.ScoreGroup
						var want []float32
						for i := 0; i < g; i++ {
							grp, w := request(first*8+i, counts[(first+i)%len(counts)])
							groups = append(groups, grp)
							want = append(want, w...)
						}
						for _, workers := range []int{1, 2, 4} {
							tensor.SetMaxWorkers(workers)
							name := fmt.Sprintf("%s item %d batch %d groups %d first %d workers %d", mc.name, item, batch, g, first, workers)
							got := make([]float32, len(want))
							r.ScoreGroups(groups, got)
							assertSameBits(t, name, got, want)
							if g == 1 {
								got, err := r.Score(Context{Dense: groups[0].Dense, Sparse: groups[0].Sparse}, groups[0].Items)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								assertSameBits(t, name+" (Score)", got, want)
							}
						}
					}
				}
			}
		}
	}
}

func assertSameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: score %d = %v, replicated oracle says %v", name, i, got[i], want[i])
		}
	}
}
