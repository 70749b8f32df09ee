package elrec

import (
	"strings"
	"testing"
)

func TestEffTTEmbeddingBagDropIn(t *testing.T) {
	dense := NewEmbeddingBag(1000, 16, 1)
	eff, err := NewEffTTEmbeddingBag(1000, 16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eff.FootprintBytes() >= dense.FootprintBytes() {
		t.Fatalf("TT footprint %d not below dense %d", eff.FootprintBytes(), dense.FootprintBytes())
	}
	indices, offsets := []int{3, 500, 999, 3}, []int{0, 2}
	for _, table := range []EmbeddingBag{dense, eff} {
		out := table.Lookup(indices, offsets)
		if out.Rows != 2 || out.Cols != 16 {
			t.Fatalf("lookup shape %dx%d", out.Rows, out.Cols)
		}
		grad := out.Clone()
		table.Update(indices, offsets, grad, 0.01)
	}
}

func TestNewEffTTEmbeddingBagBadDim(t *testing.T) {
	// A prime dimension factorizes as 1×1×p, which is always legal, so use
	// an invalid rank instead to exercise the error path.
	if _, err := NewEffTTEmbeddingBag(100, 16, 0, 1); err == nil {
		t.Fatal("zero rank accepted")
	}
}

func TestDatasetPresets(t *testing.T) {
	for _, spec := range []DatasetSpec{Avazu(0.01), Kaggle(0.01), Terabyte(0.01)} {
		d, err := NewDataset(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		b := d.Batch(0, 16)
		if b.Size() != 16 || len(b.Sparse) != spec.NumTables() {
			t.Fatalf("%s: bad batch shape", spec.Name)
		}
	}
}

func TestBuildReorderingFacade(t *testing.T) {
	counts := make([]int64, 100)
	for i := range counts {
		counts[i] = int64(100 - i)
	}
	bij, err := BuildReordering(counts, [][]int{{1, 2, 3}, {4, 5, 6}}, DefaultReorderConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := bij.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSystemEndToEnd(t *testing.T) {
	spec := Kaggle(0.0005)
	cfg := DefaultSystemConfig(spec)
	cfg.Model.EmbDim = 8
	cfg.Rank = 4
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve := sys.Train(0, 30, 64)
	if len(curve.Losses) != 30 {
		t.Fatalf("trained %d steps", len(curve.Losses))
	}
	acc, auc := sys.Evaluate(40, 3, 64)
	if acc <= 0 || auc < 0 || auc > 1 {
		t.Fatalf("evaluation out of range: acc=%v auc=%v", acc, auc)
	}
}

func TestNewDLRMFacade(t *testing.T) {
	tables := []EmbeddingBag{NewEmbeddingBag(50, 8, 1), NewEmbeddingBag(70, 8, 2)}
	cfg := ModelConfig{NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 1}
	m, err := NewDLRM(cfg, tables)
	if err != nil {
		t.Fatal(err)
	}
	if m.MLPBytes() <= 0 {
		t.Fatal("model has no dense parameters")
	}
}

func TestSaveLoadModelFacade(t *testing.T) {
	tables := []EmbeddingBag{NewEmbeddingBag(40, 8, 1)}
	cfg := ModelConfig{NumDense: 2, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 1}
	m, err := NewDLRM(cfg, tables)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.ckpt"
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewDLRM(cfg, []EmbeddingBag{NewEmbeddingBag(40, 8, 9)})
	if err := LoadModel(path, m2); err != nil {
		t.Fatal(err)
	}
}

// TestSystemSaveModelNeedsRawIds: the weights-only model file carries no
// index bijection, so a system that trained on reordered ids must not write
// one — a server would look raw ids up in rows trained for other ids. With
// reordering off the file round-trips: a pool built from it scores held-out
// requests bit for bit like the trainer's own model.
func TestSystemSaveModelNeedsRawIds(t *testing.T) {
	spec := Kaggle(0.0005)
	build := func(reorder bool) *System {
		cfg := DefaultSystemConfig(spec)
		cfg.Model.EmbDim = 8
		cfg.Rank = 4
		cfg.TTThreshold = 1000 // five TT tables, the item table among them
		cfg.Reorder = reorder
		sys, err := BuildSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	path := t.TempDir() + "/model.bin"

	err := build(true).SaveModel(path)
	if err == nil || !strings.Contains(err.Error(), "-no-reorder") {
		t.Fatalf("a reordered system saved a weights-only model (or did not name the way out): %v", err)
	}

	sys := build(false)
	if err := sys.CanSaveModel(); err != nil {
		t.Fatal(err)
	}
	sys.Train(0, 30, 64)
	if err := sys.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	const item = 2
	pool, err := NewServingPoolFromCheckpoint(path, item, 16, ServingOptions{
		Replicas: 2,
		Factory:  func() (*DLRMModel, error) { return build(false).Model(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	trainer, err := NewRanker(sys.Model(), item, 16)
	if err != nil {
		t.Fatal(err)
	}
	held := sys.Source().Batch(100, 8)
	candidates := []int{0, 1, 5, 17, spec.TableRows[item] - 1}
	for s := 0; s < held.Size(); s++ {
		ctx := RankContext{Dense: held.Dense.Row(s), Sparse: make([]int, len(held.Sparse))}
		for f := range held.Sparse {
			ctx.Sparse[f] = held.Sparse[f][s]
		}
		want, err := trainer.Score(ctx, candidates)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.Score(ctx, candidates)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("request %d candidate %d: served %v, trainer %v", s, candidates[i], got[i], want[i])
			}
		}
	}
}
