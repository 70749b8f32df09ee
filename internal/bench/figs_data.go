package bench

import (
	"fmt"

	"repro/internal/data"
)

// fig4a regenerates Figure 4(a): the cumulative access percentage covered by
// the most popular fraction of embedding rows, per dataset — the power-law
// skew the Eff-TT optimizations exploit.
func fig4a(sc Scale) *Result {
	points := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.00}
	r := &Result{
		ID:     "fig4a",
		Title:  "cumulative access percentage vs top fraction of rows",
		Header: []string{"dataset", "top1%", "top5%", "top10%", "top25%", "top50%", "top100%"},
	}
	for _, spec := range datasets(sc) {
		d, err := data.New(spec)
		if err != nil {
			panic(err)
		}
		// Aggregate the curve over the largest table (where skew matters).
		largest := 0
		for t, rows := range spec.TableRows {
			if rows > spec.TableRows[largest] {
				largest = t
			}
		}
		counts := d.AccessCounts(largest, 30, sc.Batch)
		curve := data.CumulativeAccessCurve(counts, points)
		row := []string{spec.Name}
		for _, v := range curve {
			row = append(row, f2(v*100))
		}
		r.AddRow(row...)
	}
	r.AddNote("largest table per dataset, 30 batches of %d", sc.Batch)
	return r
}

// fig4b regenerates Figure 4(b): batch size vs the average number of unique
// indices per batch — the gap that in-advance gradient aggregation exploits.
func fig4b(sc Scale) *Result {
	batchSizes := []int{512, 1024, 2048, 4096, 8192}
	r := &Result{
		ID:     "fig4b",
		Title:  "average unique indices per batch vs batch size",
		Header: []string{"dataset", "512", "1024", "2048", "4096", "8192"},
	}
	for _, spec := range datasets(sc) {
		d, err := data.New(spec)
		if err != nil {
			panic(err)
		}
		row := []string{spec.Name}
		for _, bs := range batchSizes {
			row = append(row, fmt.Sprintf("%.0f", d.AvgUniqueAllTables(5, bs)))
		}
		r.AddRow(row...)
	}
	r.AddNote("averaged over all tables, 5 batches per point; unique count ≪ batch size throughout")
	return r
}
