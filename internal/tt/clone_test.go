package tt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// cloneTestTable builds a small Eff-TT table with a warm arena cache so the
// clone starts from a table whose mutable scratch is fully populated.
func cloneTestTable(t *testing.T) (*Table, []int, []int) {
	t.Helper()
	shape, err := NewShape(4096, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(shape, tensor.NewRNG(77), 0)
	indices := make([]int, 256)
	offsets := make([]int, 64)
	for i := range indices {
		indices[i] = (i * 131) % shape.Rows
	}
	for s := range offsets {
		offsets[s] = s * 4
	}
	tbl.Lookup(indices, offsets) // warm arena
	return tbl, indices, offsets
}

// TestCloneForServingMatchesSource checks a clone reproduces the source
// table's lookups bit for bit while sharing the core storage.
func TestCloneForServingMatchesSource(t *testing.T) {
	tbl, indices, offsets := cloneTestTable(t)
	clone := tbl.CloneForServing()

	for k := 0; k < Dims; k++ {
		if clone.Cores[k] != tbl.Cores[k] {
			t.Fatalf("core %d not shared: clone must reference the source matrices", k)
		}
	}
	requireSameBits(t, "warm batch", clone.Lookup(indices, offsets), tbl.Lookup(indices, offsets))

	// The clone owns its arena: a lookup on the clone must not disturb the
	// source's retained output (which aliases the source arena).
	ref := tbl.Lookup(indices, offsets)
	snapshot := append([]float32(nil), ref.Data...)
	clone.Lookup(indices[:64], offsets[:16])
	for i := range snapshot {
		if ref.Data[i] != snapshot[i] {
			t.Fatalf("clone lookup mutated source arena at %d", i)
		}
	}

}

// TestCloneMemoOverflowMatchesSourceForward drives a clone with a recurring
// skewed stream whose hot rows recur every batch and whose batch sizes
// change: every lookup matches the source bit for bit, and the clone's reuse
// buffer holds exactly the current batch's unique prefixes, so no product
// outlives its batch however many prefixes the stream has touched.
func TestCloneMemoOverflowMatchesSourceForward(t *testing.T) {
	tbl, _, _ := cloneTestTable(t) // 256 prefixes
	clone := tbl.CloneForServing()

	r := tensor.NewRNG(520)
	seen := map[int]bool{}
	for step := 0; step < 60; step++ {
		batch := 4 + 28*(step%3)
		indices, offsets := make([]int, batch), make([]int, batch)
		unique := map[int]bool{}
		for i := range indices {
			// Zipf-like: a few hot rows recur every batch, the tail wanders.
			indices[i] = int(float64(tbl.NumRows()) * math.Pow(r.Float64(), 4))
			offsets[i] = i
			unique[tbl.Shape.prefix(indices[i])] = true
			seen[tbl.Shape.prefix(indices[i])] = true
		}
		want := tbl.Lookup(indices, offsets)
		requireSameBits(t, fmt.Sprintf("step %d", step), clone.Lookup(indices, offsets), want)
		if got := clone.arena.PrefixBuf.Rows; got != len(unique) {
			t.Fatalf("step %d: clone reuse buffer holds %d rows, batch has %d unique prefixes", step, got, len(unique))
		}
	}
	if len(seen) <= 32 {
		t.Fatalf("stream touched only %d prefixes; it must outgrow its largest batch", len(seen))
	}
}

// TestPrefixCacheBitExactAgainstRecompute: model versions made the supported
// way, by training the source and re-cloning, serve the source's freshly
// recomputed lookups bit for bit on the first lookup and on a repeat.
func TestPrefixCacheBitExactAgainstRecompute(t *testing.T) {
	tbl := newTestTable(t, 503)
	r := tensor.NewRNG(504)
	indices, offsets := randomBatch(r, tbl.NumRows(), 32, 4)
	dOut := tensor.New(len(offsets), tbl.Dim())

	for version := 0; version < 4; version++ {
		clone := tbl.CloneForServing()
		want := tbl.Lookup(indices, offsets) // batch-local prefixes
		requireSameBits(t, fmt.Sprintf("version %d first lookup", version), clone.Lookup(indices, offsets), want)
		requireSameBits(t, fmt.Sprintf("version %d repeat lookup", version), clone.Lookup(indices, offsets), want)
		trainOneStep(tbl, indices, offsets, dOut, 0.01)
	}
}

// TestCloneForServingConcurrentLookups drives many goroutines through
// distinct clones under -race: clones share only the immutable cores, so
// the race detector must stay silent and every result must match the
// serial reference.
func TestCloneForServingConcurrentLookups(t *testing.T) {
	tbl, indices, offsets := cloneTestTable(t)
	ref := tbl.Lookup(indices, offsets)
	want := append([]float32(nil), ref.Data...)

	const goroutines = 8
	clones := make([]*Table, goroutines)
	for g := range clones {
		clones[g] = tbl.CloneForServing()
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				out := clones[g].Lookup(indices, offsets)
				for i := range want {
					if out.Data[i] != want[i] {
						errs <- fmt.Errorf("clone %d iter %d: lookup mismatch at %d", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloneForServingIsReadOnly: backward and Update on a clone panic with
// the contract's name instead of writing cores other replicas read; the
// source stays trainable.
func TestCloneForServingIsReadOnly(t *testing.T) {
	tbl, indices, offsets := cloneTestTable(t)
	clone := tbl.CloneForServing()
	dOut := tensor.New(len(offsets), tbl.Dim())
	before := tbl.Cores[0].Clone()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "serving clones are read-only; train the source and re-clone") {
				t.Fatalf("%s on a clone: recovered %q, want the read-only contract panic", name, msg)
			}
		}()
		f()
	}
	mustPanic("Update", func() {
		clone.Lookup(indices, offsets)
		clone.Update(indices, offsets, dOut, 0.1)
	})
	mustPanic("Backward", func() {
		clone.Lookup(indices, offsets)
		clone.backward(clone.arena, dOut, 0.1)
	})
	if d := tbl.Cores[0].MaxAbsDiff(before); d != 0 {
		t.Fatalf("refused update still moved the shared cores by %v", d)
	}

	for i := range dOut.Data {
		dOut.Data[i] = 1
	}
	tbl.Lookup(indices, offsets)
	tbl.Update(indices, offsets, dOut, 0.1)
	if tbl.Cores[0].MaxAbsDiff(before) == 0 {
		t.Fatal("source table stopped training after being cloned")
	}
}
