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
// work the lookahead dedup actually removes. One result row per metric, so
// two runs at different lookahead settings diff row-by-row under
// `elrec-bench -compare`:
//
//	cache_hit_rate, seq_cache_hit_rate,
//	steps_per_s                     higher is better
//	bytes_prefetched, gather_ms,
//	prefetch_stall_ms, evictions    lower is better
//	final_loss                      must be bit-identical (the lookahead
//	                                schedule never changes trained values)
//
// seq_cache_hit_rate is the deterministic policy metric: the pipelined
// counters depend slightly on how far the apply stage had advanced when
// each batch was gathered, while the sequential schedule orders every
// apply before the next gather and reproduces its counters exactly.
//
// pinned_rows and windows are informational (zero without lookahead).
func pipeCache(sc Scale) *Result {
	pipe := pipeCacheRun(sc, 4)
	seq := pipeCacheRun(sc, 1)

	r := &Result{
		ID:     "pipecache",
		Title:  fmt.Sprintf("pipeline cache, lookahead window %d", sc.Lookahead),
		Header: []string{"metric", "value"},
	}
	r.AddRow("cache_hit_rate", fmt.Sprintf("%.4f", pipe.st.CacheHitRate))
	r.AddRow("seq_cache_hit_rate", fmt.Sprintf("%.4f", seq.st.CacheHitRate))
	r.AddRow("bytes_prefetched", fmt.Sprintf("%d", pipe.st.BytesPrefetched))
	r.AddRow("gather_ms", fmt.Sprintf("%.3f", pipe.st.GatherTime.Seconds()*1e3))
	r.AddRow("prefetch_stall_ms", fmt.Sprintf("%.3f", seq.st.PrefetchWait.Seconds()*1e3))
	r.AddRow("evictions", fmt.Sprintf("%d", pipe.st.CacheEvictions))
	r.AddRow("steps_per_s", fmt.Sprintf("%.1f/s", float64(pipe.st.Steps)/pipe.wall.Seconds()))
	r.AddRow("pinned_rows", fmt.Sprintf("%d", pipe.st.LookaheadPinnedRows))
	r.AddRow("windows", fmt.Sprintf("%d", pipe.st.LookaheadWindows))
	r.AddRow("final_loss", fmt.Sprintf("%.6f", pipe.loss))
	r.AddNote("terabyte-like dataset, largest table TT on device, batch %d, %d measured steps",
		sc.Batch, sc.Steps)
	r.AddNote("pipelined rows from queue depth 4; seq_* and prefetch_stall_ms from the sequential schedule (depth 1)")
	r.AddNote("seq_cache_hit_rate is exactly reproducible: the sequential schedule applies each push before the next gather, so the cache counters do not depend on queue timing")
	r.AddNote("sequential schedule reproduced final_loss bit-exactly: %v", pipe.loss == seq.loss)
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
