package reorder

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/tensor"
)

func TestFrequencyOrder(t *testing.T) {
	for _, tc := range []struct {
		counts []int64
		want   []int32
	}{
		// idx 1 (100) -> rank 0, idx 4 (50) -> rank 1, idx 0/2 (5) -> 2,3 by
		// id, idx 3 (0) -> rank 4.
		{[]int64{5, 100, 5, 0, 50}, []int32{2, 0, 3, 4, 1}},
		// Zero counts sit between the positive and the negative ones, in id
		// order; negative counts still rank by value.
		{[]int64{0, -1, 3, 0, -5, 3, -1}, []int32{2, 4, 0, 3, 6, 1, 5}},
		{[]int64{0, 0, 0}, []int32{0, 1, 2}},
	} {
		b, _ := frequencyOrder(tc.counts)
		rank := forward(b)
		for i := range tc.want {
			if rank[i] != tc.want[i] {
				t.Fatalf("frequencyOrder(%v) = %v want %v", tc.counts, rank, tc.want)
			}
		}
	}
}

func TestIdentityBijection(t *testing.T) {
	b := identity(5)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	got := b.Apply([]int{3, 1, 4})
	for i, v := range []int{3, 1, 4} {
		if got[i] != v {
			t.Fatalf("identity Apply changed indices: %v", got)
		}
	}
}

func TestApplyInPlace(t *testing.T) {
	b := fromForward([]int32{1, 0, 3, 2})
	idx := []int{0, 2}
	b.ApplyInPlace(idx)
	if idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("ApplyInPlace = %v", idx)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := fromForward([]int32{0, 1, 2})
	b.news[0] = 1 // duplicate
	if b.Validate() == nil {
		t.Fatal("duplicate new id accepted")
	}
	b = fromForward([]int32{0, 1, 2})
	b.news[0] = 5 // out of range
	if b.Validate() == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestBuildHotRowsLandInFront(t *testing.T) {
	// 100 rows; rows 10 and 20 dominate access counts.
	counts := make([]int64, 100)
	counts[10] = 1000
	counts[20] = 900
	for i := range counts {
		counts[i]++
	}
	batches := [][]int{{1, 2, 3}, {4, 5, 6}}
	bij, err := Build(counts, batches, Config{HotRatio: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if err := bij.Validate(); err != nil {
		t.Fatal(err)
	}
	if bij.At(10) != 0 || bij.At(20) != 1 {
		t.Fatalf("hot rows at %d, %d; want 0, 1", bij.At(10), bij.At(20))
	}
}

func TestBuildGroupsCooccurringIndices(t *testing.T) {
	// Two clusters of ids that always co-occur must land contiguously.
	counts := make([]int64, 40)
	for i := range counts {
		counts[i] = 1
	}
	clusterA := []int{3, 17, 29}
	clusterB := []int{5, 11, 35}
	var batches [][]int
	for i := 0; i < 10; i++ {
		batches = append(batches, clusterA, clusterB)
	}
	bij, err := Build(counts, batches, Config{HotRatio: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := bij.Validate(); err != nil {
		t.Fatal(err)
	}
	spreadOf := func(cluster []int) int {
		lo, hi := bij.At(cluster[0]), bij.At(cluster[0])
		for _, idx := range cluster[1:] {
			v := bij.At(idx)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if s := spreadOf(clusterA); s != len(clusterA)-1 {
		t.Fatalf("cluster A spread %d, want contiguous", s)
	}
	if s := spreadOf(clusterB); s != len(clusterB)-1 {
		t.Fatalf("cluster B spread %d, want contiguous", s)
	}
}

func TestBuildValidation(t *testing.T) {
	ten := make([]int64, 10)
	for _, tc := range []struct {
		name    string
		counts  []int64
		batches [][]int
		cfg     Config
		want    string // substring of the error
	}{
		{"empty counts", nil, nil, DefaultConfig(), "empty counts"},
		{"hot ratio above 1", []int64{1, 2}, nil, Config{HotRatio: 2}, "HotRatio"},
		{"negative hot ratio", []int64{1, 2}, nil, Config{HotRatio: -0.5}, "HotRatio"},
		{"NaN hot ratio", ten, nil, Config{HotRatio: math.NaN()}, "HotRatio"},
		{"negative graph cap", ten, [][]int{{1, 2, 3}}, Config{MaxGraphNodes: -1}, "MaxGraphNodes"},
		{"negative pair cap", ten, [][]int{{1, 2, 3}}, Config{MaxPairsPerBatch: -2}, "MaxPairsPerBatch"},
		{"out-of-range batch index", []int64{1, 2}, [][]int{{5}}, DefaultConfig(), "index 5"},
	} {
		bij, err := Build(tc.counts, tc.batches, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build = %v, %v; want an error naming %q", tc.name, bij, err, tc.want)
		}
	}
}

func TestBuildGraphNodeCap(t *testing.T) {
	counts := make([]int64, 1000)
	for i := range counts {
		counts[i] = int64(1000 - i)
	}
	batches := [][]int{{900, 901, 902}}
	bij, err := Build(counts, batches, Config{HotRatio: 0.01, MaxGraphNodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := bij.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows beyond hot+cap keep frequency order: the coldest row stays last.
	if bij.At(999) != 999 {
		t.Fatalf("tail row moved to %d", bij.At(999))
	}
}

// Property: Build always yields a permutation.
func TestQuickBuildIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 5 + r.Intn(100)
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(r.Intn(50))
		}
		var batches [][]int
		for b := 0; b < r.Intn(6); b++ {
			batch := make([]int, 1+r.Intn(10))
			for i := range batch {
				batch[i] = r.Intn(n)
			}
			batches = append(batches, batch)
		}
		ratios := []float64{0, 0.05, 0.5, 1}
		cfg := Config{HotRatio: ratios[r.Intn(len(ratios))]}
		bij, err := Build(counts, batches, cfg)
		if err != nil {
			return false
		}
		return bij.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReorderingImprovesPrefixSharing is the end-to-end property the paper
// relies on: after reordering, batches touch fewer distinct TT prefixes
// (index / m₃ buckets), increasing Eff-TT reuse.
func TestReorderingImprovesPrefixSharing(t *testing.T) {
	spec := data.Spec{
		Name: "reorder-e2e", NumDense: 1, TableRows: []int{4096},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 32, ActiveGroups: 4, Locality: 0.85,
		Samples: 1 << 20, Seed: 99,
	}
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const (
		table     = 0
		batchSize = 256
		trainIt   = 40
		m3        = 16 // TT last-core length: prefix = idx / 16
	)
	counts := d.AccessCounts(table, trainIt, batchSize)
	var batches [][]int
	for it := 0; it < trainIt; it++ {
		batches = append(batches, d.Batch(it, batchSize).Sparse[table])
	}
	bij, err := Build(counts, batches, Config{HotRatio: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := bij.Validate(); err != nil {
		t.Fatal(err)
	}

	prefixes := func(indices []int) int {
		pfx := make([]int, len(indices))
		for i, idx := range indices {
			pfx[i] = idx / m3
		}
		uniq, _ := embedding.Unique(pfx)
		return len(uniq)
	}
	var before, after int
	for it := trainIt; it < trainIt+20; it++ { // held-out batches
		raw := d.Batch(it, batchSize).Sparse[table]
		before += prefixes(raw)
		after += prefixes(bij.Apply(raw))
	}
	if after >= before {
		t.Fatalf("reordering did not improve prefix sharing: %d -> %d unique prefixes", before, after)
	}
	t.Logf("unique prefixes per 20 batches: %d -> %d (%.1f%% reduction)",
		before, after, 100*(1-float64(after)/float64(before)))
}

// TestBuildIsDeterministic locks in the determinism contract the analyzer
// suite enforces statically: on a fixed input — large enough to exercise
// the hot prefix, the co-occurrence graph, Louvain aggregation and the
// cold tail — 20 repeated Build runs must produce the identical bijection.
// Before graphx sorted its neighbor traversals and accumulated modularity
// in first-appearance order, map iteration order leaked into tie-breaking
// and this test flaked.
func TestBuildIsDeterministic(t *testing.T) {
	const rows = 500
	counts := make([]int64, rows)
	for i := range counts {
		// Zipf-ish skew with deterministic arithmetic: no RNG involved.
		counts[i] = int64(1 + (rows-i)*(rows-i)/64)
	}
	var batches [][]int
	for b := 0; b < 200; b++ {
		batch := make([]int, 0, 8)
		for j := 0; j < 8; j++ {
			batch = append(batch, (b*37+j*j*13)%rows)
		}
		batches = append(batches, batch)
	}
	cfg := Config{HotRatio: 0.05, MaxPairsPerBatch: 32}

	first, err := Build(counts, batches, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 20; run++ {
		b, err := Build(counts, batches, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i := range first.Len() {
			if b.At(i) != first.At(i) {
				t.Fatalf("run %d: At(%d) = %d, run 0 had %d — bijection is not deterministic",
					run, i, b.At(i), first.At(i))
			}
		}
	}
}

// identity is the identity bijection over n rows: no stored row, every
// row its own frequency rank.
func identity(n int) *Bijection {
	b := &Bijection{n: n}
	b.index()
	return b
}

// fromForward is the bijection raw → forward[raw], every row stored.
func fromForward(forward []int32) *Bijection {
	b := &Bijection{n: len(forward), news: slices.Clone(forward)}
	for raw := range forward {
		b.raws = append(b.raws, int32(raw))
	}
	b.index()
	return b
}

// forward lists b's new id of every row, forward[raw] = b.At(raw).
func forward(b *Bijection) []int32 {
	out := make([]int32, b.Len())
	for raw := range out {
		out[raw] = int32(b.At(raw))
	}
	return out
}
