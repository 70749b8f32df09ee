package dlrm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/data"
)

// trainedTTModel trains a small mixed dense/TT model for a few steps so the
// clone starts from non-trivial weights and a warm Eff-TT arena.
func trainedTTModel(t *testing.T, d *data.Dataset) *Model {
	t.Helper()
	m, err := NewModel(testConfig(), ttTables(t, testSpec()))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 15; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	return m
}

// TestCloneForServingMatchesSource: a serving clone predicts bit-identically
// to the source model over several batches.
func TestCloneForServingMatchesSource(t *testing.T) {
	d, _ := data.New(testSpec())
	m := trainedTTModel(t, d)
	clone, err := m.CloneForServing()
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 4; it++ {
		b := d.Batch(100+it, 32)
		want := m.Predict(b)
		got := clone.Predict(b)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("batch %d row %d: clone %v != source %v", it, i, got[i], want[i])
			}
		}
	}
}

// TestCloneForServingConcurrentPredict drives distinct clones concurrently
// under -race and checks every prediction against the serial reference.
func TestCloneForServingConcurrentPredict(t *testing.T) {
	d, _ := data.New(testSpec())
	m := trainedTTModel(t, d)

	const goroutines = 8
	batches := make([]*data.Batch, goroutines)
	want := make([][]float32, goroutines)
	for g := range batches {
		batches[g] = d.Batch(200+g, 32)
		want[g] = append([]float32(nil), m.Predict(batches[g])...)
	}

	clones := make([]*Model, goroutines)
	for g := range clones {
		c, err := m.CloneForServing()
		if err != nil {
			t.Fatal(err)
		}
		clones[g] = c
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				got := clones[g].Predict(batches[g])
				for i := range want[g] {
					if got[i] != want[g][i] {
						errs <- fmt.Errorf("clone %d iter %d row %d: %v != %v", g, iter, i, got[i], want[g][i])
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

// TestCloneForServingIsolatesParameters: training the source after cloning
// must not change the clone's predictions.
func TestCloneForServingIsolatesParameters(t *testing.T) {
	d, _ := data.New(testSpec())
	m, err := NewModel(testConfig(), denseTables(t, testSpec()))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 5; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	clone, err := m.CloneForServing()
	if err != nil {
		t.Fatal(err)
	}
	probe := d.Batch(300, 16)
	before := append([]float32(nil), clone.Predict(probe)...)
	// Embedding tables are shared read-only under the serving contract, so
	// isolation is about the dense towers: perturbing every source MLP
	// parameter must leave the clone untouched.
	for _, p := range m.MLPParams() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.5
		}
	}
	after := clone.Predict(probe)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d: clone prediction drifted after source update: %v -> %v", i, before[i], after[i])
		}
	}
}

// unservableTable is a Table implementation CloneForServing cannot replicate.
type unservableTable struct{ Table }

func TestCloneForServingRejectsUnknownTables(t *testing.T) {
	tables := denseTables(t, testSpec())
	tables[1] = unservableTable{tables[1]}
	m, err := NewModel(testConfig(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CloneForServing(); !errors.Is(err, errNotServable) {
		t.Fatalf("want ErrNotServable, got %v", err)
	}
}
