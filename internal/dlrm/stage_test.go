package dlrm

import (
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// TestTableStageRatioGaugesMatchCounters: 16 small Eff-TT tables attached to
// one registry share its tt_* instruments, and at four workers the table
// stage runs their Lookups and Updates on concurrent executors. After every
// step each ratio gauge must equal the quotient of the counters it
// summarises, exactly as a serial run leaves it: a recorder that stored the
// quotient it read before another table's counts landed must not have the
// last word. Tiny batches over many steps make such races frequent: a
// recorder that stores once fails this test in nearly every run.
func TestTableStageRatioGaugesMatchCounters(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.Workers())
	tensor.SetMaxWorkers(4)
	spec := testSpec()
	spec.TableRows = nil
	for i := range 16 {
		spec.TableRows = append(spec.TableRows, []int{300, 50, 800}[i%3])
	}
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tables := ttTables(t, spec)
	reg := obs.NewRegistry()
	for _, tbl := range tables {
		tbl.(*tt.Table).AttachMetrics(reg)
	}
	m, err := NewModel(testConfig(), tables)
	if err != nil {
		t.Fatal(err)
	}
	ratios := []struct {
		gauge, num, den string
		ratio           func(n, d float64) float64
	}{
		{"tt_dedup_ratio", "tt_indices", "tt_work_items", func(n, d float64) float64 { return n / d }},
		{"tt_prefix_hit_rate", "tt_unique_prefixes", "tt_prefix_work", func(n, d float64) float64 { return 1 - n/d }},
		{"tt_backward_agg_ratio", "tt_backward_rows", "tt_backward_work", func(n, d float64) float64 { return n / d }},
		{"tt_backward_prefix_agg_ratio", "tt_backward_work", "tt_backward_prefix_work", func(n, d float64) float64 { return n / d }},
	}
	for it := 0; it < 1500; it++ {
		m.TrainStep(d.Batch(it, 8))
		s := reg.Snapshot()
		for _, r := range ratios {
			n, den := s.Counter(r.num), s.Counter(r.den)
			if den == 0 {
				t.Fatalf("step %d: %s is 0", it, r.den)
			}
			if got, want := s.Gauges[r.gauge], r.ratio(float64(n), float64(den)); got != want {
				t.Fatalf("step %d: %s = %v, its counters' quotient is %v", it, r.gauge, got, want)
			}
		}
	}
}
