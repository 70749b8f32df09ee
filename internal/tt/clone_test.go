package tt

import (
	"fmt"
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
// table's lookups bit-exactly while sharing the core storage.
func TestCloneForServingMatchesSource(t *testing.T) {
	tbl, indices, offsets := cloneTestTable(t)
	clone := tbl.CloneForServing()

	for k := 0; k < Dims; k++ {
		if clone.Cores[k] != tbl.Cores[k] {
			t.Fatalf("core %d not shared: clone must reference the source matrices", k)
		}
	}

	want := tbl.Lookup(indices, offsets)
	got := clone.Lookup(indices, offsets)
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("clone lookup differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}

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
// the contract's name instead of writing cores other replicas read (and
// leaving stale products in the clone's memo); the source stays trainable.
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
		_, cache := clone.forward(indices, offsets)
		clone.backward(cache, dOut, 0.1)
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
