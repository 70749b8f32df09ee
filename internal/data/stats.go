package data

import (
	"sort"

	"repro/internal/embedding"
)

// AccessCounts tallies how often each row of table t is accessed over the
// given number of batches — the "global information" of §IV-A, and the
// input to frequency-based index ordering.
func (d *Dataset) AccessCounts(table, batches, batchSize int) []int64 {
	counts := make([]int64, d.Spec.TableRows[table])
	var g Generator
	var ids []int
	for it := 0; it < batches; it++ {
		ids = d.IndicesInto(&g, ids, it, batchSize, table)
		for _, idx := range ids {
			counts[idx]++
		}
	}
	return counts
}

// CumulativeAccessCurve reproduces Figure 4(a): for each fraction p in
// points (ascending, in (0,1]), the fraction of all accesses covered by the
// most popular p of rows.
func CumulativeAccessCurve(counts []int64, points []float64) []float64 {
	sorted := append([]int64(nil), counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total float64
	for _, c := range sorted {
		total += float64(c)
	}
	out := make([]float64, len(points))
	if total == 0 {
		return out
	}
	var running float64
	next := 0
	for i, c := range sorted {
		running += float64(c)
		frac := float64(i+1) / float64(len(sorted))
		for next < len(points) && frac >= points[next] {
			out[next] = running / total
			next++
		}
		if next == len(points) {
			break
		}
	}
	for ; next < len(points); next++ {
		out[next] = 1
	}
	return out
}

// AvgUniquePerBatch reproduces one point of Figure 4(b): the average number
// of unique indices per batch for table t at the given batch size.
func (d *Dataset) AvgUniquePerBatch(table, batches, batchSize int) float64 {
	var total int
	var g Generator
	var ids []int
	var seen embedding.Index
	var uniq, inverse []int
	for it := 0; it < batches; it++ {
		ids = d.IndicesInto(&g, ids, it, batchSize, table)
		uniq, inverse = seen.UniqueInto(ids, uniq, inverse)
		total += len(uniq)
	}
	return float64(total) / float64(batches)
}

// AvgUniqueAllTables averages the per-batch unique-index count over every
// table (the statistic the paper plots per dataset).
func (d *Dataset) AvgUniqueAllTables(batches, batchSize int) float64 {
	var total float64
	for t := range d.Spec.TableRows {
		total += d.AvgUniquePerBatch(t, batches, batchSize)
	}
	return total / float64(d.Spec.NumTables())
}

// LabelRate returns the positive-label fraction over the given batches,
// used to sanity-check the hidden CTR model.
func (d *Dataset) LabelRate(batches, batchSize int) float64 {
	var pos, n float64
	for it := 0; it < batches; it++ {
		b := d.Batch(it, batchSize)
		for _, l := range b.Labels {
			pos += float64(l)
			n++
		}
	}
	return pos / n
}
