package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/ps"
)

// pipeCache measures the data-pipeline cache on the Figure 16 workload
// (largest table TT-compressed on the device, the rest in host memory behind
// the parameter server). Scale.Lookahead selects the window size: 0 runs the
// unplanned push-visibility cache, N≥2 turns on lookahead planning — oracle
// admission, Belady pinning and cross-batch dedup. Two schedules run back to
// back from identical initial state: the pipelined schedule (queue depth 4)
// supplies the throughput/hit-rate rows, and the sequential schedule (queue
// depth 1, where the worker waits out the entire gather each step) supplies
// prefetch_stall_ms — at depth 4 the worker is compute-bound and its queue
// wait is cold-start noise, while the sequential stall exposes the gather
// work the lookahead dedup actually removes. One result row per metric:
//
//	cache_hit_rate, seq_cache_hit_rate,
//	steps_per_s                     higher is better
//	bytes_prefetched, gather_ms,
//	prefetch_stall_ms, evictions    lower is better
//	final_loss                      must be bit-identical (the lookahead
//	                                schedule never changes trained values)
//
// Only seq_cache_hit_rate, bytes_prefetched, pinned_rows, windows and
// final_loss repeat from run to run, so only they compare across two
// lookahead settings under `elrec-bench -compare`. The pipelined
// cache_hit_rate and evictions depend on how far the apply stage had
// advanced when each batch was gathered: ten quick-scale runs of one
// binary, for example, gave 2 104 to 4 223 evictions and hit rates of 0.264
// to 0.297. The sequential schedule orders every apply before the next
// gather, so its counters repeat exactly. The timing rows vary as timings
// do.
//
// pinned_rows and windows are zero without lookahead.
func pipeCache(sc Scale) *Result {
	pipe := pipeCacheRun(sc, 4)
	seq := pipeCacheRun(sc, 1)

	r := &Result{
		ID:     "pipecache",
		Title:  fmt.Sprintf("pipeline cache, lookahead window %d", sc.Lookahead),
		Header: []string{"metric", "value"},
	}
	r.addRow("cache_hit_rate", fmt.Sprintf("%.4f", pipe.st.CacheHitRate))
	r.addRow("seq_cache_hit_rate", fmt.Sprintf("%.4f", seq.st.CacheHitRate))
	r.addRow("bytes_prefetched", fmt.Sprintf("%d", pipe.st.BytesPrefetched))
	r.addRow("gather_ms", fmt.Sprintf("%.3f", pipe.st.GatherTime.Seconds()*1e3))
	r.addRow("prefetch_stall_ms", fmt.Sprintf("%.3f", seq.st.PrefetchWait.Seconds()*1e3))
	r.addRow("evictions", fmt.Sprintf("%d", pipe.st.CacheEvictions))
	r.addRow("steps_per_s", fmt.Sprintf("%.1f/s", float64(pipe.st.Steps)/pipe.wall.Seconds()))
	r.addRow("pinned_rows", fmt.Sprintf("%d", pipe.st.LookaheadPinnedRows))
	r.addRow("windows", fmt.Sprintf("%d", pipe.st.LookaheadWindows))
	r.addRow("final_loss", fmt.Sprintf("%.6f", pipe.loss))
	r.addNote("terabyte-like dataset, largest table TT on device, batch %d, %d measured steps",
		sc.Batch, sc.Steps)
	r.addNote("pipelined rows from queue depth 4; seq_* and prefetch_stall_ms from the sequential schedule (depth 1)")
	r.addNote("rows that repeat run to run: seq_cache_hit_rate, bytes_prefetched, pinned_rows, windows, final_loss; the pipelined cache_hit_rate and evictions depend on queue timing")
	r.addNote("sequential schedule reproduced final_loss bit-exactly: %v", pipe.loss == seq.loss)
	return r
}

// pipeCacheResult is one schedule's measurement.
type pipeCacheResult struct {
	st   ps.Stats
	loss float64
	wall time.Duration
}

// pipeCacheRun builds a fresh pipecache system (identical initial state for
// every call — table init is seeded) at the given queue depth, warms it, and
// runs the measured steps. Only the depth-4 run adopts the scale's metrics
// registry so the two schedules' instruments do not collide.
func pipeCacheRun(sc Scale, depth int) pipeCacheResult {
	d, err := data.New(data.TerabyteSpec(sc.DatasetScale))
	if err != nil {
		panic(err)
	}
	cfg := ps.Config{QueueDepth: depth, Lookahead: sc.Lookahead}
	if depth > 1 {
		cfg.Metrics = sc.Metrics
	}
	p := fig16Pipeline(sc, d, true, cfg)
	before := p.Stats()
	var out pipeCacheResult
	out.wall = timeIt(func() {
		res, err := p.Train(context.Background(), d, sc.WarmSteps, sc.Steps, sc.Batch)
		if err != nil {
			panic(err)
		}
		out.loss = res.Curve.Final(sc.Steps)
	})
	out.st = statsDelta(p.Stats(), before)
	return out
}
