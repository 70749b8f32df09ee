package bench

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// rngFor returns a deterministic generator for a bench component.
func rngFor(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }

// fig13 regenerates Figure 13: training throughput of one very large
// embedding table (the paper's 40M×128, ~19 GB — exceeding one GPU's 16 GB)
// under EL-Rec (TT, data parallel), HugeCTR (row sharding, model parallel)
// and TorchRec (column sharding, model parallel) across device counts.
// Placement feasibility (OOM) is judged at the paper's full-scale footprint;
// compute is measured at the harness scale.
func fig13(sc Scale) *Result {
	const fullRows, fullDim = 40_000_000, 128
	fullBytes := int64(fullRows) * fullDim * 4
	rows := scaledRows(fullRows, sc, 50_000)
	dev := hw.TeslaV100()
	devCounts := []int{1, 2, 4}

	r := &Result{
		ID:     "fig13",
		Title:  fmt.Sprintf("single large table (%d rows scaled from 40M x 128) throughput (samples/s)", rows),
		Header: []string{"devices", "EL-Rec (TT)", "HugeCTR (row-shard)", "TorchRec (col-shard)"},
	}

	w := newTableWorkload(rows, sc.Steps+sc.WarmSteps, sc.Batch, 1313)
	dOut := gradFor(sc.Batch, sc.EmbDim, 7)
	samples := float64(sc.Steps * sc.Batch)

	// Measures one table's full training steps, returning compute wall time
	// over the measured steps.
	measure := func(tbl dlrm.Table, batches [][]int) time.Duration {
		for i := 0; i < sc.WarmSteps; i++ {
			tbl.Update(batches[i], w.offsets, dOut, 1e-4)
		}
		return timeIt(func() {
			for i := sc.WarmSteps; i < sc.WarmSteps+sc.Steps; i++ {
				out := tbl.Lookup(batches[i], w.offsets)
				_ = out
				tbl.Update(batches[i], w.offsets, dOut, 1e-4)
			}
		})
	}

	for _, n := range devCounts {
		row := []string{fmt.Sprintf("%d", n)}

		// EL-Rec: replicated TT table, batch split n ways, all-reduce of the
		// (tiny) TT core gradients each step.
		ttTbl := w.newTT(sc.EmbDim, sc.Rank, tt.EffOptions())
		wall := measure(ttTbl, w.reordered)
		compute := time.Duration(float64(wall) / float64(n) / dev.ComputeScale)
		perStep := hw.AllReduceTime(nvlink, n, ttTbl.FootprintBytes())
		if n > 1 {
			perStep += hw.CollectiveOverhead(1)
		}
		comm := perStep * time.Duration(sc.Steps)
		row = append(row, fmt.Sprintf("%.0f", samples/(compute+comm).Seconds()))

		// HugeCTR: row-sharded full table. The full-scale footprint must fit
		// n devices.
		if !dev.Fits(fullBytes/int64(n), 1<<30) {
			row = append(row, "OOM")
		} else {
			sh, err := baselines.NewRowSharded(rows, sc.EmbDim, n, rngFor(2))
			if err != nil {
				panic(err)
			}
			wall := measure(sh, w.raw)
			perPeer := (sh.Traffic.ForwardBytes + sh.Traffic.BackwardBytes) / int64(max(1, n-1)) / int64(sc.Steps+sc.WarmSteps)
			compute := time.Duration(float64(wall) / float64(n) / dev.ComputeScale)
			perStep := hw.AllToAllTime(nvlink, n, perPeer)*2 + hw.CollectiveOverhead(2)
			comm := perStep * time.Duration(sc.Steps)
			row = append(row, fmt.Sprintf("%.0f", samples/(compute+comm).Seconds()))
		}

		// TorchRec: column-sharded full table, same feasibility rule.
		if !dev.Fits(fullBytes/int64(n), 1<<30) {
			row = append(row, "OOM")
		} else {
			sh, err := baselines.NewColSharded(rows, sc.EmbDim, n, rngFor(3))
			if err != nil {
				panic(err)
			}
			wall := measure(sh, w.raw)
			perPeer := (sh.Traffic.ForwardBytes + sh.Traffic.BackwardBytes) / int64(max(1, n-1)) / int64(sc.Steps+sc.WarmSteps)
			compute := time.Duration(float64(wall) / float64(n) / dev.ComputeScale)
			perStep := hw.AllToAllTime(nvlink, n, perPeer)*2 + hw.CollectiveOverhead(2)
			comm := perStep * time.Duration(sc.Steps)
			row = append(row, fmt.Sprintf("%.0f", samples/(compute+comm).Seconds()))
		}
		r.addRow(row...)
	}
	r.addNote("19 GB full-scale table exceeds one 16 GB GPU: sharded systems need >=2 devices, EL-Rec fits on one")
	r.addNote("paper: EL-Rec 1.07x over HugeCTR, 1.35x over TorchRec at 4 GPUs")
	return r
}
