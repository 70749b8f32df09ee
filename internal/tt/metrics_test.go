package tt

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// TestForwardMetricsKnownBatch checks the exported counters and ratio
// gauges against a hand-computed batch. testShape has RowFactors {4,5,5},
// so prefix(idx) = idx/5: indices 0 and 1 share prefix 0, index 7 has
// prefix 1.
func TestForwardMetricsKnownBatch(t *testing.T) {
	tbl := newTestTable(t, 3)
	reg := obs.NewRegistry()
	tbl.AttachMetrics(reg)

	indices := []int{0, 0, 1, 1, 7, 7}
	offsets := []int{0, 3}
	tbl.Lookup(indices, offsets)

	snap := reg.Snapshot()
	wantCounters := map[string]int64{
		"tt_indices":               6, // occurrences entering forward
		"tt_work_items":            3, // unique rows {0, 1, 7}
		"tt_prefix_work":           3, // all three work items hit the prefix stage
		"tt_unique_prefixes":       2, // prefixes {0, 1}
		"tt_batched_gemm_launches": 1,
	}
	for name, want := range wantCounters {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d want %d", name, got, want)
		}
	}
	if got := snap.Gauges["tt_dedup_ratio"]; got != 2.0 {
		t.Errorf("tt_dedup_ratio = %v want 2", got)
	}
	if got, want := snap.Gauges["tt_prefix_hit_rate"], 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("tt_prefix_hit_rate = %v want %v", got, want)
	}

	// A second identical batch doubles the counters; the cumulative ratios
	// are unchanged.
	tbl.Lookup(indices, offsets)
	snap = reg.Snapshot()
	if got := snap.Counter("tt_indices"); got != 12 {
		t.Errorf("tt_indices after second batch = %d want 12", got)
	}
	if got := snap.Gauges["tt_dedup_ratio"]; got != 2.0 {
		t.Errorf("tt_dedup_ratio after second batch = %v want 2", got)
	}
}

// TestBackwardMetricsAggregation checks both aggregation levels on a known
// batch: 6 gradient occurrences collapse to 3 aggregated rows, whose
// prefixes {0, 0, 1} run the rank-sized contractions twice.
func TestBackwardMetricsAggregation(t *testing.T) {
	tbl := newTestTable(t, 7)
	reg := obs.NewRegistry()
	tbl.AttachMetrics(reg)

	indices := []int{0, 0, 1, 1, 7, 7}
	offsets := []int{0, 3}
	grad := tensor.New(len(offsets), tbl.Shape.Dim)
	tensor.NewRNG(21).FillUniform(grad.Data, 0.1)
	tbl.Update(indices, offsets, grad, 0.01)

	snap := reg.Snapshot()
	if got := snap.Counter("tt_backward_rows"); got != 6 {
		t.Errorf("tt_backward_rows = %d want 6", got)
	}
	if got := snap.Counter("tt_backward_work"); got != 3 {
		t.Errorf("tt_backward_work = %d want 3", got)
	}
	if got := snap.Gauges["tt_backward_agg_ratio"]; got != 2.0 {
		t.Errorf("tt_backward_agg_ratio = %v want 2", got)
	}
	if got := snap.Counter("tt_backward_prefix_work"); got != 2 {
		t.Errorf("tt_backward_prefix_work = %d want 2", got)
	}
	if got := snap.Gauges["tt_backward_prefix_agg_ratio"]; got != 1.5 {
		t.Errorf("tt_backward_prefix_agg_ratio = %v want 1.5", got)
	}

	// Without in-advance aggregation every occurrence is a gradient row and
	// runs the whole chain.
	naive := newTestTable(t, 8)
	naive.Opts = NaiveOptions()
	regN := obs.NewRegistry()
	naive.AttachMetrics(regN)
	naive.Update(indices, offsets, grad, 0.01)
	snapN := regN.Snapshot()
	if got := snapN.Counter("tt_backward_work"); got != 6 {
		t.Errorf("naive tt_backward_work = %d want 6", got)
	}
	if got := snapN.Counter("tt_backward_prefix_work"); got != 6 {
		t.Errorf("naive tt_backward_prefix_work = %d want 6", got)
	}
}

// TestForwardMetricsSharedAcrossTables checks that two tables attached to
// one registry aggregate into the same instruments.
func TestForwardMetricsSharedAcrossTables(t *testing.T) {
	a := newTestTable(t, 4)
	b := newTestTable(t, 5)
	reg := obs.NewRegistry()
	a.AttachMetrics(reg)
	b.AttachMetrics(reg)

	a.Lookup([]int{0, 0}, []int{0})
	b.Lookup([]int{1, 2, 3}, []int{0})

	if got := reg.Snapshot().Counter("tt_indices"); got != 5 {
		t.Fatalf("aggregated tt_indices = %d want 5", got)
	}
}

// TestForwardMetricsDetached checks the unattached and nil-registry paths
// stay no-ops (and do not panic).
func TestForwardMetricsDetached(t *testing.T) {
	tbl := newTestTable(t, 6)
	tbl.Lookup([]int{0, 1}, []int{0}) // never attached

	tbl.AttachMetrics(nil) // explicit nil registry
	tbl.Lookup([]int{0, 1}, []int{0})
}

// benchTable builds a larger table for the instrumentation-overhead
// benchmark.
func benchTable(b *testing.B) *Table {
	s, err := NewShapeExplicit(4096, 32, [Dims]int{16, 16, 16}, [Dims]int{4, 4, 2}, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	return NewTable(s, tensor.NewRNG(11), 0.05)
}

// benchBatch builds a Zipf-ish skewed batch so dedup and prefix reuse have
// structure to exploit, as in training.
func benchBatch(rows, batch, bag int) (indices, offsets []int) {
	r := tensor.NewRNG(13)
	offsets = make([]int, batch)
	for s := 0; s < batch; s++ {
		offsets[s] = len(indices)
		for i := 0; i < bag; i++ {
			indices = append(indices, r.Intn(rows/4))
		}
	}
	return indices, offsets
}

// BenchmarkForwardInstrumentation measures the TT forward pass with metrics
// detached vs attached; the acceptance bar is ≤5% overhead when disabled
// (the "off" case is the default construction path).
func BenchmarkForwardInstrumentation(b *testing.B) {
	indices, offsets := benchBatch(4096, 128, 8)
	b.Run("off", func(b *testing.B) {
		tbl := benchTable(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Lookup(indices, offsets)
		}
	})
	b.Run("on", func(b *testing.B) {
		tbl := benchTable(b)
		tbl.AttachMetrics(obs.NewRegistry())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Lookup(indices, offsets)
		}
	})
}
