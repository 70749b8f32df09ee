package serve

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/tt"
)

func serveSpec() data.Spec {
	return data.Spec{
		Name: "serve", NumDense: 3, TableRows: []int{100, 2000},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 61,
	}
}

func serveModel(t *testing.T) *dlrm.Model {
	t.Helper()
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
	d, _ := data.New(serveSpec())
	for it := 0; it < 20; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	return m
}

func TestNewRankerValidation(t *testing.T) {
	m := serveModel(t)
	if _, err := NewRanker(m, 5, 32); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("item feature out of range: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewRanker(m, 1, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("zero batch: err = %v, want ErrInvalidConfig", err)
	}
}

func testContext() Context {
	return Context{Dense: []float32{0.5, -1, 0.2}, Sparse: []int{7, 0}}
}

func TestScoreMatchesModelPredict(t *testing.T) {
	m := serveModel(t)
	r, err := NewRanker(m, 1, 16) // item = table 1 (TT compressed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testContext()
	candidates := []int{0, 5, 1999, 42}
	scores, err := r.Score(ctx, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(candidates) {
		t.Fatalf("got %d scores", len(scores))
	}
	// Reference: score one candidate at a time via the model directly.
	for i, c := range candidates {
		single := r.NewBatcher().Build(ctx, []int{c})
		want := m.Predict(single)[0]
		if math.Abs(float64(scores[i]-want)) > 1e-6 {
			t.Fatalf("candidate %d: score %v want %v", c, scores[i], want)
		}
	}
}

func TestScoreBatchBoundary(t *testing.T) {
	m := serveModel(t)
	r, _ := NewRanker(m, 1, 3) // batch 3: forces multiple partial batches
	candidates := []int{1, 2, 3, 4, 5, 6, 7}
	a, err := r.Score(testContext(), candidates)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRanker(m, 1, 100)
	b, _ := r2.Score(testContext(), candidates)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-6 {
			t.Fatalf("batch size changed score %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestScoreValidation(t *testing.T) {
	m := serveModel(t)
	r, _ := NewRanker(m, 1, 16)
	if _, err := r.Score(Context{Dense: []float32{1}, Sparse: []int{0, 0}}, []int{1}); !errors.Is(err, ErrInvalidContext) {
		t.Fatalf("wrong dense width: err = %v, want ErrInvalidContext", err)
	}
	if _, err := r.Score(Context{Dense: []float32{1, 2, 3}, Sparse: []int{0}}, []int{1}); !errors.Is(err, ErrInvalidContext) {
		t.Fatalf("wrong sparse count: err = %v, want ErrInvalidContext", err)
	}
	if _, err := r.Score(Context{Dense: []float32{1, 2, 3}, Sparse: []int{500, 0}}, []int{1}); !errors.Is(err, ErrInvalidContext) {
		t.Fatalf("context index out of range: err = %v, want ErrInvalidContext", err)
	}
	if _, err := r.Score(testContext(), []int{-1}); !errors.Is(err, ErrInvalidCandidate) {
		t.Fatalf("negative candidate: err = %v, want ErrInvalidCandidate", err)
	}
	if _, err := r.Score(testContext(), []int{2000}); !errors.Is(err, ErrInvalidCandidate) {
		t.Fatalf("candidate out of range: err = %v, want ErrInvalidCandidate", err)
	}
	if _, err := r.Score(testContext(), []int{1}); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestTopKOrderingAndCompleteness(t *testing.T) {
	m := serveModel(t)
	r, _ := NewRanker(m, 1, 32)
	ctx := testContext()
	candidates := make([]int, 200)
	for i := range candidates {
		candidates[i] = i * 7 % 2000
	}
	scores, _ := r.Score(ctx, candidates)

	top, err := r.TopK(ctx, candidates, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("TopK returned %d items", len(top))
	}
	// Descending order.
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("TopK not sorted: %v", top)
		}
	}
	// Agrees with a full sort.
	type pair struct {
		item  int
		score float32
	}
	all := make([]pair, len(candidates))
	for i := range candidates {
		all[i] = pair{candidates[i], scores[i]}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].item < all[b].item
	})
	for i := 0; i < 10; i++ {
		if top[i].Item != all[i].item {
			t.Fatalf("TopK[%d] = %d, full sort says %d", i, top[i].Item, all[i].item)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	m := serveModel(t)
	r, _ := NewRanker(m, 1, 32)
	if _, err := r.TopK(testContext(), []int{1, 2}, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("k=0: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := r.TopK(testContext(), []int{1, -2}, 1); !errors.Is(err, ErrInvalidCandidate) {
		t.Fatalf("bad candidate through TopK: err = %v, want ErrInvalidCandidate", err)
	}
	// k larger than candidates: all returned, ranked.
	top, err := r.TopK(testContext(), []int{3, 9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d items want 2", len(top))
	}
	if top[0].Score < top[1].Score {
		t.Fatal("not ranked")
	}
}

// TestSelectTopKNaNRanksLast: NaN scores must sort below every real score
// and must not corrupt the heap invariant (the old better() answered false
// both ways on NaN, which could evict real scores arbitrarily).
func TestSelectTopKNaNRanksLast(t *testing.T) {
	nan := float32(math.NaN())
	candidates := []int{10, 11, 12, 13, 14, 15}
	scores := []float32{nan, 0.9, nan, 0.1, 0.5, nan}

	// k covering everything: real scores descending first, NaNs last by id.
	all := SelectTopK(candidates, scores, len(candidates))
	wantItems := []int{11, 14, 13, 10, 12, 15}
	for i, w := range wantItems {
		if all[i].Item != w {
			t.Fatalf("rank %d = item %d, want %d (full: %v)", i, all[i].Item, w, all)
		}
	}
	for _, s := range all[3:] {
		if s.Score == s.Score {
			t.Fatalf("item %d ranked in the NaN tail with real score %v", s.Item, s.Score)
		}
	}

	// Small k must keep the real scores and drop NaNs first, regardless of
	// the order they streamed through the heap.
	top := SelectTopK(candidates, scores, 3)
	if len(top) != 3 {
		t.Fatalf("got %d items want 3", len(top))
	}
	for i, w := range []int{11, 14, 13} {
		if top[i].Item != w {
			t.Fatalf("top-3 rank %d = item %d, want %d (%v)", i, top[i].Item, w, top)
		}
	}

	// All-NaN input still yields a total order (by item id).
	allNaN := SelectTopK([]int{5, 3, 4}, []float32{nan, nan, nan}, 2)
	if allNaN[0].Item != 3 || allNaN[1].Item != 4 {
		t.Fatalf("all-NaN order %v, want items 3,4", allNaN)
	}
}

// TestBatcherReuseMatchesFreshBuild: the pooled Batcher must produce the
// same batches as fresh construction, across shrinking and growing row
// counts that exercise scratch reuse.
func TestBatcherReuseMatchesFreshBuild(t *testing.T) {
	m := serveModel(t)
	r, _ := NewRanker(m, 1, 16)
	ctx := testContext()
	b := r.NewBatcher()
	for _, candidates := range [][]int{{1, 2, 3, 4, 5}, {9}, {7, 8, 6, 5, 4, 3, 2}} {
		got := b.Build(ctx, candidates)
		want := r.NewBatcher().Build(ctx, candidates)
		if got.Size() != want.Size() || got.Dense.MaxAbsDiff(want.Dense) != 0 {
			t.Fatalf("reused dense differs for %v", candidates)
		}
		for tbl := range want.Sparse {
			for s := range want.Sparse[tbl] {
				if got.Sparse[tbl][s] != want.Sparse[tbl][s] {
					t.Fatalf("sparse[%d][%d] = %d want %d", tbl, s, got.Sparse[tbl][s], want.Sparse[tbl][s])
				}
			}
		}
		for s, o := range want.Offsets {
			if got.Offsets[s] != o {
				t.Fatalf("offsets[%d] = %d want %d", s, got.Offsets[s], o)
			}
		}
	}
}
