package served

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor/workertest"
	"repro/internal/tt"
)

// poolFactory builds the poolModel architecture untrained — the serving
// skeleton SwapFromCheckpoint fills from checkpoint bytes. Seeds are
// irrelevant: LoadFile overwrites every parameter.
func poolFactory() ModelFactory {
	return func() (*dlrm.Model, error) {
		tables, _, err := dlrm.BuildTables(poolSpec().TableRows,
			dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 1000, Opts: tt.EffOptions(), Seed: 3})
		if err != nil {
			return nil, err
		}
		return dlrm.NewModel(dlrm.Config{
			NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 1.0, Seed: 4,
		}, tables)
	}
}

// saveVersions trains poolModel onward and checkpoints it at two training
// horizons, returning the two paths. The versions genuinely differ, so a
// stale-read bug cannot hide behind identical scores.
func saveVersions(t *testing.T) (v1, v2 string) {
	t.Helper()
	m := poolModel(t)
	dir := t.TempDir()
	v1 = filepath.Join(dir, "v1.ckpt")
	v2 = filepath.Join(dir, "v2.ckpt")
	if err := checkpoint.SaveFile(v1, m); err != nil {
		t.Fatal(err)
	}
	d, err := data.New(poolSpec())
	if err != nil {
		t.Fatal(err)
	}
	for it := 20; it < 40; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	if err := checkpoint.SaveFile(v2, m); err != nil {
		t.Fatal(err)
	}
	return v1, v2
}

// serialScores computes the serve.Ranker reference scores for every test
// goroutine on the checkpoint at path.
func serialScores(t *testing.T, path string, goroutines int) [][]float32 {
	t.Helper()
	m, err := loadVersion(poolFactory(), path)
	if err != nil {
		t.Fatal(err)
	}
	ranker, err := serve.NewRanker(m, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([][]float32, goroutines)
	for g := range refs {
		refs[g], err = ranker.Score(poolContext(g), poolCandidates(g))
		if err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSwapUnderLoadBitExact is the swap-under-load regression: 8 goroutines
// hammer Score under -race while the main goroutine SwapFromCheckpoints in
// a loop between two genuinely different versions. Every response must
// succeed (zero sheds, zero drops) and be bit-identical to one of the two
// version references — a torn read mixing versions, or a stale clone
// serving after its version retired two swaps ago, both fail the membership
// check. Afterwards the hot pool must score bit-identically to a cold pool
// built from the final checkpoint, and the swap instruments must have fired.
func TestSwapUnderLoadBitExact(t *testing.T) {
	v1, v2 := saveVersions(t)
	paths := []string{v1, v2}
	const goroutines = 8
	refs := [][][]float32{
		serialScores(t, v1, goroutines),
		serialScores(t, v2, goroutines),
	}
	for g := 0; g < goroutines; g++ {
		if bitEqual(refs[0][g], refs[1][g]) {
			t.Fatalf("goroutine %d: v1 and v2 scores identical — versions must differ for the test to mean anything", g)
		}
	}

	reg := obs.NewRegistry()
	p, err := NewFromCheckpoint(v1, 1, 16, Options{
		Replicas: 4, QueueDepth: 256, MaxCoalesce: 4, Metrics: reg, Factory: poolFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Version(); got != 1 {
		t.Fatalf("fresh pool version %d want 1", got)
	}

	stop := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				scores, err := p.Score(poolContext(g), poolCandidates(g))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if !bitEqual(scores, refs[0][g]) && !bitEqual(scores, refs[1][g]) {
					errs <- fmt.Errorf("goroutine %d iter %d: scores match neither checkpoint version", g, it)
					return
				}
			}
		}(g)
	}

	const swaps = 10
	for s := 0; s < swaps; s++ {
		next := paths[(s+1)%2]
		v, err := p.SwapFromCheckpoint(next)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("swap %d: %v", s, err)
		}
		if v != int64(s+2) {
			close(stop)
			wg.Wait()
			t.Fatalf("swap %d returned version %d want %d", s, v, s+2)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Post-swap scores must be bit-exact vs a cold pool loaded from the
	// same (final) checkpoint.
	final := paths[swaps%2]
	cold, err := NewFromCheckpoint(final, 1, 16, Options{Replicas: 2, Factory: poolFactory()})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for g := 0; g < goroutines; g++ {
		hot, err := p.Score(poolContext(g), poolCandidates(g))
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Score(poolContext(g), poolCandidates(g))
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(hot, want) {
			t.Fatalf("goroutine %d: hot pool diverges from cold pool on the same checkpoint", g)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Gauges["model_version"]; got != float64(swaps+1) {
		t.Fatalf("model_version gauge %v want %d", got, swaps+1)
	}
	if got := snap.Histograms["serve_swap_ns"].Count; got != swaps {
		t.Fatalf("serve_swap_ns count %d want %d", got, swaps)
	}
	if p.Version() != int64(swaps+1) {
		t.Fatalf("Version() %d want %d", p.Version(), swaps+1)
	}
}

// TestSwapFailuresLeavePoolServing drives every SwapFromCheckpoint failure
// mode and asserts the pool keeps serving the old version untouched.
func TestSwapFailuresLeavePoolServing(t *testing.T) {
	v1, _ := saveVersions(t)
	p, err := NewFromCheckpoint(v1, 1, 16, Options{Replicas: 2, Factory: poolFactory()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := serialScores(t, v1, 1)[0]

	// Missing file → os.ErrNotExist surfaces for the 404 mapping.
	if _, err := p.SwapFromCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: err %v, want os.ErrNotExist", err)
	}
	// Corrupt file → ErrCorruptCheckpoint; pool untouched.
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SwapFromCheckpoint(bad); !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
		t.Fatalf("corrupt checkpoint: err %v, want ErrCorruptCheckpoint", err)
	}
	if got := p.Version(); got != 1 {
		t.Fatalf("failed swaps bumped version to %d", got)
	}
	scores, err := p.Score(poolContext(0), poolCandidates(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(scores, want) {
		t.Fatal("failed swaps disturbed the serving model")
	}

	// No factory → ErrInvalidConfig from both reload entry points.
	m, err := loadVersion(poolFactory(), v1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.SwapFromCheckpoint(v1); !errors.Is(err, serve.ErrInvalidConfig) {
		t.Fatalf("factoryless swap: err %v, want ErrInvalidConfig", err)
	}
	if _, err := plain.SwapFromCheckpoint(""); !errors.Is(err, serve.ErrInvalidConfig) {
		t.Fatalf("pathless swap: err %v, want ErrInvalidConfig", err)
	}
	if _, err := NewFromCheckpoint(v1, 1, 16, Options{Replicas: 1}); !errors.Is(err, serve.ErrInvalidConfig) {
		t.Fatalf("factoryless NewFromCheckpoint: err %v, want ErrInvalidConfig", err)
	}
}

// TestSwapAfterClose asserts a swap against a drained pool fails with
// ErrShutdown instead of deadlocking on dead workers.
func TestSwapAfterClose(t *testing.T) {
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Swap(m); !errors.Is(err, ErrShutdown) {
		t.Fatalf("swap after close: err %v, want ErrShutdown", err)
	}
}

// TestSwapDefaultPath asserts SwapFromCheckpoint("") re-reads the
// NewFromCheckpoint path.
func TestSwapDefaultPath(t *testing.T) {
	v1, _ := saveVersions(t)
	p, err := NewFromCheckpoint(v1, 1, 16, Options{Replicas: 1, Factory: poolFactory()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	v, err := p.SwapFromCheckpoint("")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("default-path swap returned version %d want 2", v)
	}
}

// TestReadyFlipsDuringSwapAndClose pins the readiness state machine: ready
// while serving, not ready after Close. (Mid-swap readiness is exercised by
// the HTTP test via a slow factory.)
func TestReadyFlipsDuringSwapAndClose(t *testing.T) {
	m := poolModel(t)
	p, err := New(m, 1, 16, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Ready() {
		t.Fatal("fresh pool not ready")
	}
	p.Close()
	if p.Ready() {
		t.Fatal("closed pool reports ready")
	}
}

// TestReplicaScoreZeroAllocSteadyState: once replica scratch has grown to
// the working shape, scoring a coalesced micro-batch through the grouped
// forward allocates nothing, at one worker and at the host's width. The
// model is poolModel's mix: table 0 is an embedding.Bag context table, table
// 1 the Eff-TT item table, and both look up into replica-owned scratch. Two
// replicas then score concurrently (under -race in CI), and every score must
// have the bits of the sequential one.
func TestReplicaScoreZeroAllocSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	m := poolModel(t)
	p, err := newPool(m, 1, 16, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range p.workers {
		for i := 0; i < 4; i++ {
			ctx := poolContext(i)
			w.rep.groups = append(w.rep.groups, dlrm.ScoreGroup{Dense: ctx.Dense, Sparse: ctx.Sparse, Items: poolCandidates(i)})
		}
	}
	r := p.workers[0].rep
	want := append([]float32(nil), r.score()...) // warmup: grows the scratch to the micro-batch shape
	workertest.Each(t, func(workers int) {
		r.score()
		allocs := testing.AllocsPerRun(20, func() {
			r.score()
		})
		if allocs != 0 {
			t.Fatalf("steady-state score allocated %v times per call at %d workers, want 0", allocs, workers)
		}
	})

	var wg sync.WaitGroup
	errs := make(chan error, len(p.workers))
	for k, w := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for i, got := range w.rep.score() {
					if got != want[i] {
						errs <- fmt.Errorf("replica %d iter %d score %d: %v, sequential %v", k, iter, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
