package baselines

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tensor"
)

func faeSpec() data.Spec {
	return data.Spec{
		Name: "fae-test", NumDense: 2, TableRows: []int{500, 200},
		ZipfS: 1.3, ZipfV: 2, GroupSize: 16, ActiveGroups: 3, Locality: 0.9,
		Samples: 1 << 20, Seed: 31,
	}
}

func faeModel(t *testing.T, spec data.Spec) *dlrm.Model {
	t.Helper()
	tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: -1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dlrm.NewModel(dlrm.Config{NumDense: 2, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 3}, tables)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFAEValidation(t *testing.T) {
	spec := faeSpec()
	m := faeModel(t, spec)
	if _, err := NewFAE(m, [][]int64{{1}}, 0.75); err == nil {
		t.Fatal("wrong count vector count accepted")
	}
	counts := [][]int64{make([]int64, 500), make([]int64, 200)}
	if _, err := NewFAE(m, counts, 0); err == nil {
		t.Fatal("zero hot fraction accepted")
	}
	if _, err := NewFAE(m, [][]int64{make([]int64, 499), make([]int64, 200)}, 0.5); err == nil {
		t.Fatal("count length mismatch accepted")
	}
}

func TestFAEClassification(t *testing.T) {
	spec := faeSpec()
	d, _ := data.New(spec)
	m := faeModel(t, spec)
	counts := make([][]int64, len(spec.TableRows))
	for t2 := range counts {
		counts[t2] = d.AccessCounts(t2, 30, 64)
	}
	fae, err := NewFAE(m, counts, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var coldSum float64
	for it := 30; it < 70; it++ {
		_, coldFrac := fae.TrainBatch(d.Batch(it, 64))
		coldSum += coldFrac
	}
	if fae.HotSamples+fae.ColdSamples != 40*64 {
		t.Fatal("sample counters do not cover the batches")
	}
	if fae.ColdSamples == 0 {
		t.Fatal("no cold samples: classification has no power")
	}
	if fae.HotSamples == 0 {
		t.Fatal("no hot samples: hot set useless")
	}
	if fae.ColdBytes == 0 {
		t.Fatal("cold samples must account transfer bytes")
	}
	hotRows := 0
	for _, set := range fae.hotSet {
		hotRows += len(set)
	}
	if hotRows == 0 || hotRows >= 700 {
		t.Fatalf("hot set size %d implausible", hotRows)
	}
	t.Logf("hot=%d cold=%d samples (%.0f%% cold), hot rows=%d", fae.HotSamples, fae.ColdSamples,
		100*float64(fae.ColdSamples)/float64(fae.HotSamples+fae.ColdSamples), hotRows)
}

func TestFAEHotBatchDetection(t *testing.T) {
	spec := faeSpec()
	d, _ := data.New(spec)
	m := faeModel(t, spec)
	// All rows hot: every batch must classify hot.
	counts := make([][]int64, len(spec.TableRows))
	for t2, r := range spec.TableRows {
		counts[t2] = make([]int64, r)
		for i := range counts[t2] {
			counts[t2][i] = 1
		}
	}
	fae, _ := NewFAE(m, counts, 1.0)
	b := d.Batch(0, 32)
	for s := 0; s < b.Size(); s++ {
		if !fae.sampleIsHot(b, s) {
			t.Fatalf("sample %d cold although all rows are hot", s)
		}
	}
}

// referenceBag builds a Bag with prescribed weights.
func referenceBag(rows, dim int, seed uint64) *embedding.Bag {
	return embedding.NewBag(rows, dim, tensor.NewRNG(seed))
}

// tableRows reads every row of tbl through its Lookup, one bag per row.
func tableRows(tbl dlrm.Table) *tensor.Matrix {
	ids := make([]int, tbl.NumRows())
	for i := range ids {
		ids[i] = i
	}
	return tbl.Lookup(ids, ids)
}

func randomBatch(r *tensor.RNG, rows, batch int) (indices, offsets []int) {
	offsets = make([]int, batch)
	for s := 0; s < batch; s++ {
		offsets[s] = s
		indices = append(indices, r.Intn(rows))
	}
	return indices, offsets
}

func TestRowShardedMatchesReference(t *testing.T) {
	const rows, dim, n = 103, 8, 4
	ref := referenceBag(rows, dim, 7)
	sh, err := NewRowSharded(rows, dim, n, tensor.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	ref.Weights.CopyFrom(tableRows(sh))

	r := tensor.NewRNG(9)
	for step := 0; step < 5; step++ {
		indices, offsets := randomBatch(r, rows, 16)
		a := ref.Lookup(indices, offsets)
		b := sh.Lookup(indices, offsets)
		if d := a.MaxAbsDiff(b); d != 0 {
			t.Fatalf("row-sharded lookup differs by %v", d)
		}
		dOut := tensor.New(16, dim)
		r.FillUniform(dOut.Data, 1)
		ref.Update(indices, offsets, dOut, 0.1)
		sh.Update(indices, offsets, dOut, 0.1)
	}
	if d := tableRows(sh).MaxAbsDiff(ref.Weights); d > 1e-6 {
		t.Fatalf("rows differ by %v after training", d)
	}
	if sh.Traffic.ForwardBytes == 0 || sh.Traffic.BackwardBytes == 0 {
		t.Fatal("row-sharded traffic not accounted")
	}
}

func TestColShardedMatchesReference(t *testing.T) {
	const rows, dim, n = 50, 12, 3
	ref := referenceBag(rows, dim, 17)
	sh, err := NewColSharded(rows, dim, n, tensor.NewRNG(18))
	if err != nil {
		t.Fatal(err)
	}
	ref.Weights.CopyFrom(tableRows(sh))

	r := tensor.NewRNG(19)
	for step := 0; step < 5; step++ {
		indices, offsets := randomBatch(r, rows, 8)
		a := ref.Lookup(indices, offsets)
		b := sh.Lookup(indices, offsets)
		if d := a.MaxAbsDiff(b); d != 0 {
			t.Fatalf("col-sharded lookup differs by %v", d)
		}
		dOut := tensor.New(8, dim)
		r.FillUniform(dOut.Data, 1)
		ref.Update(indices, offsets, dOut, 0.1)
		sh.Update(indices, offsets, dOut, 0.1)
	}
	if d := tableRows(sh).MaxAbsDiff(ref.Weights); d > 1e-6 {
		t.Fatalf("rows differ by %v after training", d)
	}
	if sh.Traffic.ForwardBytes == 0 || sh.Traffic.BackwardBytes == 0 {
		t.Fatal("col-sharded traffic not accounted")
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewRowSharded(2, 8, 4, tensor.NewRNG(1)); err == nil {
		t.Fatal("fewer rows than shards accepted")
	}
	if _, err := NewColSharded(10, 2, 4, tensor.NewRNG(1)); err == nil {
		t.Fatal("fewer cols than shards accepted")
	}
}

func TestTrafficGrowsWithDevices(t *testing.T) {
	const rows, dim = 1000, 16
	r := tensor.NewRNG(20)
	indices, offsets := randomBatch(r, rows, 64)
	fwdAt := func(n int) int64 {
		sh, err := NewRowSharded(rows, dim, n, tensor.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		sh.Lookup(indices, offsets)
		return sh.Traffic.ForwardBytes
	}
	if !(fwdAt(2) < fwdAt(4)) {
		t.Fatal("row-sharded all-to-all traffic should grow with device count")
	}
	colAt := func(n int) int64 {
		sh, err := NewColSharded(rows, dim, n, tensor.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		sh.Lookup(indices, offsets)
		return sh.Traffic.ForwardBytes
	}
	if !(colAt(2) < colAt(4)) {
		t.Fatal("col-sharded all-gather traffic should grow with device count")
	}
}
