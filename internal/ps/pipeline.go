package ps

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Logical trace-thread ids for the three pipeline stages (Figure 9). The
// exported Chrome trace shows each stage on its own track, so the
// gather/train/apply overlap is visible at a glance.
const (
	tidPrefetch = 1
	tidWorker   = 2
	tidApply    = 3
)

// BatchSource produces training batches; data.Dataset satisfies it, and the
// core package wraps it with the index-reordering bijection. Batch returns a
// fresh batch; BatchFrom generates the same batch into dst's storage (a nil
// dst gets a fresh one), taking the streams the batch's lookahead plan
// already drew (a nil plan: none), which is how Train generates its batches.
// Lookahead planning additionally needs data.sparseSource, per-table raw
// index streams (both of those implement it).
type BatchSource interface {
	Batch(iter, size int) *data.Batch
	BatchFrom(dst *data.Batch, plan *data.WindowPlan, iter, size int) *data.Batch
}

// TableLoc places one embedding table: resident on the device (Device
// non-nil — typically an Eff-TT table in HBM), in local host memory
// (HostRows > 0 — served by the in-process parameter server), or behind a
// custom HostStore (Store non-nil — e.g. a distps remote-shard client; the
// pipeline drives it through the same gather/push machinery).
type TableLoc struct {
	Device   dlrm.Table
	HostRows int
	Store    HostStore
}

// CheckpointConfig enables periodic atomic checkpoints during Train: the
// full training state (MLP, device tables, host tables, optimizer state,
// iteration counter) is written to Path via write-temp-then-rename whenever
// the completed iteration count is a multiple of Every. Zero values disable
// checkpointing.
type CheckpointConfig struct {
	Path  string
	Every int

	// Coordinate, when set, runs at the checkpoint drain barrier immediately
	// before the local state file is written. The distributed trainer uses it
	// to commit every remote shard's checkpoint at the same version first, so
	// the local file's existence implies the remote versions are durable (the
	// local write is the commit point). An error aborts the checkpoint; the
	// local file keeps its previous version.
	Coordinate func(nextIter int) error
}

// HostRNG is the generator that initialises host table i (its position in
// the model) under seed. It is the one host seed rule: a local host bag
// (embedding.NewBag) and a PS shard streaming the same rows both draw from it.
func HostRNG(seed uint64, table int) *tensor.RNG {
	return tensor.NewRNG(seed + uint64(table)*104729)
}

// Config configures a pipeline trainer.
type Config struct {
	Model dlrm.Config
	// QueueDepth is the capacity of the pre-fetch and gradient queues.
	// Depth 1 degrades the pipeline to sequential execution (the EL-Rec
	// (Sequential) baseline of Figure 16).
	QueueDepth int
	// Seed initialises the host tables: table i draws from HostRNG(Seed, i).
	Seed uint64

	// Lookahead is the data-pipeline window size in batches: the pre-fetcher
	// plans the exact sparse access set of the next Lookahead batches
	// (data.Lookahead) and uses it for oracle cache admission — rows reused
	// within the window are gathered once and served from the pinned working
	// set and rows with no later reference in the window expire by push
	// visibility. Only host tables are planned. 0 or 1 plans nothing: every
	// row is gathered every batch and entries expire by push visibility
	// alone. Training is bit-exact for every setting.
	Lookahead int

	// Faults injects deterministic failures into the gather/apply/worker
	// paths; nil (production) injects nothing.
	Faults faults.Injector

	// Retry bounds transient-fault retries; zero fields take defaults.
	Retry RetryPolicy

	// Checkpoint enables periodic crash-consistent checkpoints.
	Checkpoint CheckpointConfig

	// Metrics, when non-nil, exposes the pipeline's counters under ps_*
	// names (the pipeline owns the instruments; the registry adopts them,
	// so Stats() and a /metrics snapshot read the same values). Nil skips
	// registration; Stats() works either way.
	Metrics *obs.Registry

	// Trace, when non-nil, records gather/train/apply/push/checkpoint
	// stage spans plus stall/backoff intervals and retry markers for
	// Chrome trace export. Nil disables tracing at near-zero cost.
	Trace *obs.Tracer
}

// Stats aggregates pipeline counters for the experiment harness: the byte
// counts become simulated PCIe time under the hw model.
type Stats struct {
	Steps           int
	BytesPrefetched int64 // host → device embedding rows
	BytesPushed     int64 // device → host gradients
	CacheSyncs      int64
	CacheHits       int64
	CacheMisses     int64
	CacheEvictions  int64

	// CacheHitRate is CacheHits/(CacheHits+CacheMisses), 0 when there were
	// no lookups. Stats() also publishes it as the ps_cache_hit_rate gauge.
	CacheHitRate float64

	// CacheEntries is the live embedding-cache entries summed over host
	// tables, read when Stats is called; Stats() also publishes it as the
	// ps_cache_entries gauge.
	CacheEntries int64

	// Lookahead counters: windows planned, rows served from the pinned
	// working set instead of being re-gathered, and the time the worker
	// spent waiting for pre-fetched batches (the pipeline's prefetch stall).
	LookaheadWindows    int64
	LookaheadPinnedRows int64
	PrefetchWait        time.Duration

	// Time split for the hw cost model: GatherTime and ApplyTime are
	// host-side parameter-server work, TrainTime is worker-side compute (all
	// three wall time), and AdapterTime sums every host table's pooling and
	// aggregation time (CPU-side work in the PS architecture): above one
	// worker the table stage runs adapters at once, so it can exceed the
	// wall time they took.
	GatherTime  time.Duration
	ApplyTime   time.Duration
	TrainTime   time.Duration
	AdapterTime time.Duration

	// Fault-tolerance counters: transient faults injected into this run,
	// retries performed, time spent in retry backoff and in injected
	// slow-server stalls, and checkpoints written.
	InjectedFaults int64
	Retries        int64
	BackoffTime    time.Duration
	StallTime      time.Duration
	Checkpoints    int64
}

// TrainResult is what Train hands back, on success and on failure alike: a
// (possibly partial) loss curve and where a resumed run should pick up.
type TrainResult struct {
	Curve *metrics.LossCurve
	// Completed counts fully trained iterations in this call.
	Completed int
	// NextIter is the first iteration NOT reflected in the trained
	// parameters — pass it as startIter to continue, or persist it in a
	// checkpoint. It is -1 when Resumable is false.
	NextIter int
	// Resumable reports whether the in-memory parameters are consistent
	// (every trained batch fully applied to host tables). Cancellation,
	// gather failures and injected worker faults drain cleanly and stay
	// resumable; an exhausted apply retry or a mid-step panic does not —
	// restore from a checkpoint instead.
	Resumable bool
}

// hostBatch is the pipeline's in-flight unit, one recycled step slab: the
// training batch, each host table's gathered rows and aggregated gradient,
// and what apply needs to retire the step. The gather takes a slab
// (takeSlab) and fills it, the worker syncs, trains and pushes it, and apply
// lands its gradients and recycles it (recycleSlab). Every stage hands the
// slab on through a queue and reads nothing of it afterwards: once pushed, a
// step belongs to apply, and once applied, to the next gather. All of its
// storage is reused — matrices grow with a quarter of headroom
// (tensor.ReuseRows) — so a steady-state step allocates nothing.
type hostBatch struct {
	iter  int
	batch *data.Batch
	rows  []hostRows // one per host table, in host-table order
	// gathered is a lower bound on the number of gradient pushes that were
	// visible in the host tables when the rows were read; the cache uses it
	// to decide which published entries the gathered values already cover.
	// It is taken when the prefetch of the batch starts, before the batch is
	// generated: any earlier value is as safe, since a cache entry holds the
	// bits its push leaves in the host table.
	gathered int64
	// plan is the lookahead window plan this batch was gathered under (nil
	// for an unplanned batch). Apply releases it after the window's final
	// batch, once no consumer can still reference the plan's slices.
	plan *data.WindowPlan
	// donec, when non-nil, is closed once apply has handled the step. The
	// worker makes it for a step it must wait for (a checkpoint's drain
	// barrier) and waits on its own copy: the slab itself may be reused by
	// then.
	donec chan struct{}
}

// hostRows carries one host table's rows for one step. uniq/inverse are the
// batch's dedup. For a planned batch they and fresh/nextUse alias the window
// plan's access arrays (valid until the plan is released): fresh[i] marks
// rows gathered from the store (the remaining rows are served from the
// cache, which cache.sync copies into values), and nextUse[i] is the
// retention promise forwarded to cache.publish. An unplanned batch
// deduplicates into the slab's ownUniq/ownInverse, gathers every row and
// promises nothing: fresh and nextUse are nil. freshN counts gathered rows.
//
// values (len(uniq) × dim) and grads are the slab's storage: the gather
// fills values, Update aggregates the step's gradient into grads and
// overwrites values with the post-update rows it publishes, and apply turns
// grads into the delta in place. updated records that Update ran this step.
type hostRows struct {
	uniq    []int
	inverse []int
	values  *tensor.Matrix
	grads   *tensor.Matrix
	fresh   []bool
	nextUse []int32
	freshN  int
	updated bool

	ownUniq, ownInverse []int
}

// Pipeline trains a DLRM whose embedding layer is split between device
// tables and host-memory tables behind a parameter server, overlapping the
// server-side gather/update with worker compute (Figure 9).
type Pipeline struct {
	cfg    Config
	retry  RetryPolicy
	model  *dlrm.Model
	caches []*cache

	hostBags []*embedding.Bag // local parameter-server state; guarded by hostMu (per-table); nil entry = remote store
	hostMu   []sync.RWMutex
	hostIdx  []int // host table order -> model table position
	stores   []HostStore
	adapters []*hostAdapter

	// applied counts gradient pushes fully scattered into the host tables.
	// The gather side reads it before touching any table, so it is a safe
	// lower bound on host freshness (see hostBatch.gathered).
	applied atomic.Int64
	// trained counts batches fully trained on this pipeline; it is the
	// ordinal (push tag) of the batch currently in the worker, in the same
	// counting space as applied, which keeps cache-entry expiry consistent
	// across Train calls and checkpoint restores.
	trained atomic.Int64

	clock  obs.Clock   // timestamp source for all stage timing; never nil
	tracer *obs.Tracer // stage-span recorder; nil disables tracing

	// seen is the gather's dedup of an unplanned batch. Batches are gathered
	// one at a time (by the pre-fetcher, or inline by the sequential worker),
	// so one index serves every slab and table.
	seen embedding.Index

	// la is the lookahead planner of the last Train call, laSrc and laBatch
	// the source and batch size it plans for (see planner); only Train
	// touches them.
	la      *data.Lookahead
	laSrc   BatchSource
	laBatch int

	// spare holds the step slabs no stage references, kept across Train
	// calls for the gathers to fill (takeSlab, recycleSlab). A pipeline owns
	// exactly cap(spare) slabs (see slabs): Train tops the pool up to that
	// before it starts, so slabs a failed call dropped are replaced.
	spare chan *hostBatch

	// m holds the pipeline-owned instruments behind Stats(). Counter
	// updates are atomic, so writers on three goroutines need no lock and
	// Stats() is safe to call while Train runs.
	m pipelineMetrics
}

// pipelineMetrics are the instruments behind Stats(), owned by the pipeline
// and (when Config.Metrics is set) adopted by the registry under the ps_*
// names in registerMetrics. Durations accumulate as nanoseconds.
type pipelineMetrics struct {
	steps           obs.Counter
	bytesPrefetched obs.Counter
	bytesPushed     obs.Counter

	gatherNS  obs.Counter
	applyNS   obs.Counter
	trainNS   obs.Counter
	adapterNS obs.Counter

	injectedFaults obs.Counter
	retries        obs.Counter
	backoffNS      obs.Counter
	stallNS        obs.Counter

	checkpoints       obs.Counter
	checkpointWriteNS obs.Counter
	checkpointBytes   obs.Counter

	cacheSyncs     obs.Counter
	cacheHits      obs.Counter
	cacheMisses    obs.Counter
	cacheEvictions obs.Counter

	lookaheadWindows obs.Counter
	lookaheadPinned  obs.Counter
	prefetchWaitNS   obs.Counter

	// cacheHitRate is registry-owned (gauges are derived, not accumulated);
	// nil when no registry is attached. Stats() recomputes and sets it.
	cacheHitRate *obs.Gauge

	// Registry-owned as well, nil (one nil check per record) when detached:
	// the per-event distributions behind the gather/train/apply/stall
	// counters, observed from the same clock readings, and the live cache
	// entries summed over tables, set after each step's Syncs (the sweep's
	// size) and by Stats().
	gatherHist, trainHist, applyHist, stallHist *obs.Histogram
	cacheEntries                                *obs.Gauge
}

// registerMetrics adopts the pipeline's instruments into r (no-op when r is
// nil), so a /metrics snapshot and Stats() read identical values without
// double counting.
func (p *Pipeline) registerMetrics(r *obs.Registry) {
	r.RegisterCounter("ps_steps", &p.m.steps)
	r.RegisterCounter("ps_bytes_prefetched", &p.m.bytesPrefetched)
	r.RegisterCounter("ps_bytes_pushed", &p.m.bytesPushed)
	r.RegisterCounter("ps_gather_ns", &p.m.gatherNS)
	r.RegisterCounter("ps_apply_ns", &p.m.applyNS)
	r.RegisterCounter("ps_train_ns", &p.m.trainNS)
	r.RegisterCounter("ps_adapter_ns", &p.m.adapterNS)
	r.RegisterCounter("ps_injected_faults", &p.m.injectedFaults)
	r.RegisterCounter("ps_retries", &p.m.retries)
	r.RegisterCounter("ps_backoff_ns", &p.m.backoffNS)
	r.RegisterCounter("ps_stall_ns", &p.m.stallNS)
	r.RegisterCounter("ps_checkpoints", &p.m.checkpoints)
	r.RegisterCounter("ps_checkpoint_write_ns", &p.m.checkpointWriteNS)
	r.RegisterCounter("ps_checkpoint_bytes", &p.m.checkpointBytes)
	r.RegisterCounter("ps_cache_syncs", &p.m.cacheSyncs)
	r.RegisterCounter("ps_cache_hits", &p.m.cacheHits)
	r.RegisterCounter("ps_cache_misses", &p.m.cacheMisses)
	r.RegisterCounter("ps_cache_evictions", &p.m.cacheEvictions)
	r.RegisterCounter("ps_lookahead_windows", &p.m.lookaheadWindows)
	r.RegisterCounter("ps_lookahead_pinned_rows", &p.m.lookaheadPinned)
	r.RegisterCounter("ps_prefetch_wait_ns", &p.m.prefetchWaitNS)
	p.m.cacheHitRate = r.Gauge("ps_cache_hit_rate")
	p.m.gatherHist = r.Histogram("ps_gather_ns_hist")
	p.m.trainHist = r.Histogram("ps_train_ns_hist")
	p.m.applyHist = r.Histogram("ps_apply_ns_hist")
	p.m.stallHist = r.Histogram("ps_stall_ns_hist")
	p.m.cacheEntries = r.Gauge("ps_cache_entries")
}

// NewPipeline builds the trainer. locs must list every embedding table in
// dataset order.
//
//elrec:locked hostMu construction: the pipeline is unpublished until NewPipeline returns
func NewPipeline(cfg Config, locs []TableLoc) (*Pipeline, error) {
	if cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("%w: queue depth %d must be positive", errInvalidConfig, cfg.QueueDepth)
	}
	if cfg.Model.EmbDim <= 0 {
		return nil, fmt.Errorf("%w: embedding dim %d must be positive", errInvalidConfig, cfg.Model.EmbDim)
	}
	if len(locs) == 0 {
		return nil, fmt.Errorf("%w: no tables", errInvalidConfig)
	}
	if cfg.Checkpoint.Every < 0 || (cfg.Checkpoint.Every > 0 && cfg.Checkpoint.Path == "") {
		return nil, fmt.Errorf("%w: checkpoint interval %d without a path", errInvalidConfig, cfg.Checkpoint.Every)
	}
	if cfg.Lookahead < 0 {
		return nil, fmt.Errorf("%w: lookahead window %d must be non-negative", errInvalidConfig, cfg.Lookahead)
	}
	p := &Pipeline{
		cfg: cfg, retry: cfg.Retry.withDefaults(), clock: obs.System(), tracer: cfg.Trace,
	}
	p.registerMetrics(cfg.Metrics)
	tables := make([]dlrm.Table, len(locs))
	for i, loc := range locs {
		placements := 0
		for _, set := range []bool{loc.Device != nil, loc.HostRows > 0, loc.Store != nil} {
			if set {
				placements++
			}
		}
		if placements > 1 {
			return nil, fmt.Errorf("%w: table %d has more than one placement", errInvalidConfig, i)
		}
		switch {
		case loc.Device != nil:
			tables[i] = loc.Device
		case loc.HostRows > 0 || loc.Store != nil:
			slot := len(p.stores)
			var store HostStore
			var bag *embedding.Bag
			if loc.Store != nil {
				if loc.Store.Dim() != cfg.Model.EmbDim {
					return nil, fmt.Errorf("%w: table %d store dim %d, model dim %d", errInvalidConfig, i, loc.Store.Dim(), cfg.Model.EmbDim)
				}
				store = loc.Store
			} else {
				bag = embedding.NewBag(loc.HostRows, cfg.Model.EmbDim, HostRNG(cfg.Seed, i))
				store = &localStore{p: p, slot: slot, rows: loc.HostRows, dim: cfg.Model.EmbDim}
			}
			cache := newCache(cfg.Model.EmbDim)
			cache.attachCounters(&p.m.cacheSyncs, &p.m.cacheHits, &p.m.cacheMisses, &p.m.cacheEvictions)
			ad := &hostAdapter{pipeline: p, slot: slot, rows: store.NumRows(), dim: cfg.Model.EmbDim}
			p.hostBags = append(p.hostBags, bag)
			p.stores = append(p.stores, store)
			p.caches = append(p.caches, cache)
			p.hostIdx = append(p.hostIdx, i)
			p.adapters = append(p.adapters, ad)
			tables[i] = ad
		default:
			return nil, fmt.Errorf("%w: table %d has no placement", errInvalidConfig, i)
		}
	}
	p.hostMu = make([]sync.RWMutex, len(p.hostBags))
	p.spare = make(chan *hostBatch, p.slabs())
	model, err := dlrm.NewModel(cfg.Model, tables)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errInvalidConfig, err)
	}
	p.model = model
	return p, nil
}

// Model exposes the underlying model (for evaluation).
func (p *Pipeline) Model() *dlrm.Model { return p.model }

// Stats returns a snapshot of the accumulated counters (cache counters
// summed over tables). Safe to call concurrently with Train: each counter
// is read atomically, though the set is not a global atomic cut.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Steps:               int(p.m.steps.Value()),
		BytesPrefetched:     p.m.bytesPrefetched.Value(),
		BytesPushed:         p.m.bytesPushed.Value(),
		CacheSyncs:          p.m.cacheSyncs.Value(),
		CacheHits:           p.m.cacheHits.Value(),
		CacheMisses:         p.m.cacheMisses.Value(),
		CacheEvictions:      p.m.cacheEvictions.Value(),
		LookaheadWindows:    p.m.lookaheadWindows.Value(),
		LookaheadPinnedRows: p.m.lookaheadPinned.Value(),
		PrefetchWait:        time.Duration(p.m.prefetchWaitNS.Value()),
		GatherTime:          time.Duration(p.m.gatherNS.Value()),
		ApplyTime:           time.Duration(p.m.applyNS.Value()),
		TrainTime:           time.Duration(p.m.trainNS.Value()),
		AdapterTime:         time.Duration(p.m.adapterNS.Value()),
		InjectedFaults:      p.m.injectedFaults.Value(),
		Retries:             p.m.retries.Value(),
		BackoffTime:         time.Duration(p.m.backoffNS.Value()),
		StallTime:           time.Duration(p.m.stallNS.Value()),
		Checkpoints:         p.m.checkpoints.Value(),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	p.m.cacheHitRate.Set(s.CacheHitRate)
	for _, c := range p.caches {
		s.CacheEntries += int64(c.Len())
	}
	p.m.cacheEntries.Set(float64(s.CacheEntries))
	return s
}

// HostBag exposes host table i (for tests and post-training inspection).
//
//elrec:locked hostMu caller synchronizes: test/evaluation hook, never raced against Train
func (p *Pipeline) HostBag(i int) *embedding.Bag { return p.hostBags[i] }

// gather fills the slab's rows for its batch: the unique rows of every host
// table, read from its store (the server-side embedding lookup of the PS
// architecture — an in-process bag under a lock, or a remote shard fan-out)
// straight into the slab's value matrix. Under a plan the batch's
// uniq/inverse come from the plan and only the rows whose first in-window
// use this is (acc.FreshIDs) are read, each into its slot (acc.FreshPos) —
// the cross-batch dedup; cache.sync fills the other rows on the worker,
// where their presence is guaranteed.
func (p *Pipeline) gather(hb *hostBatch) error {
	start := p.clock.Now()
	sp := p.tracer.Begin("gather", "ps", tidPrefetch)
	defer func() {
		sp.End()
		d := obs.Since(p.clock, start)
		p.m.gatherNS.Add(int64(d))
		p.m.gatherHist.Observe(float64(d))
	}()
	for h, pos := range p.hostIdx {
		hr := &hb.rows[h]
		ids := hb.batch.Sparse[pos]
		var read, at []int // the rows read from the store and their slots in uniq (nil: in order)
		if plan := hb.plan; plan != nil {
			acc := plan.Access(h, hb.iter)
			hr.uniq, hr.inverse, hr.fresh, hr.nextUse = acc.Uniq, acc.Inverse, acc.Fresh, acc.NextUse
			read, at = acc.FreshIDs, acc.FreshPos
		} else {
			hr.ownUniq, hr.ownInverse = p.seen.UniqueInto(ids, hr.ownUniq, hr.ownInverse)
			hr.uniq, hr.inverse = hr.ownUniq, hr.ownInverse
			hr.fresh, hr.nextUse = nil, nil
			read = hr.uniq
		}
		hr.values = tensor.ReuseRows(hr.values, len(hr.uniq), p.cfg.Model.EmbDim, len(ids))
		if err := p.stores[h].GatherRows(read, at, hr.values); err != nil {
			return fmt.Errorf("host table %d: %w", h, err)
		}
		hr.freshN, hr.updated = len(read), false
	}
	return nil
}

// pipelined reports whether Train runs the pipelined schedule: a queue
// deeper than one and a host table whose server work can overlap.
func (p *Pipeline) pipelined() bool { return p.cfg.QueueDepth > 1 && len(p.stores) > 0 }

// slabs is how many step slabs the pipeline owns: one for the sequential
// schedule, and for the pipelined one the queue depth plus one each for
// the pre-fetcher, the worker and apply. That is every slab the pipeline
// holds while the pre-fetch queue is full, so the pre-fetcher waits for a
// slab only while pushes queue up behind a slow apply, and the fixed set
// converges on its storage instead of growing new slabs when a step's
// timing shifts.
func (p *Pipeline) slabs() int {
	if !p.pipelined() {
		return 1
	}
	return p.cfg.QueueDepth + 3
}

// topUpSlabs refills the spare pool with empty slabs up to the pipeline's
// count. Between Train calls no stage holds a slab, so every slab still
// owned is in the pool; only those a failed call dropped are replaced.
func (p *Pipeline) topUpSlabs() {
	for len(p.spare) < cap(p.spare) {
		p.spare <- &hostBatch{rows: make([]hostRows, len(p.stores))}
	}
}

// takeSlab returns a spare step slab to fill, waiting until apply recycles
// one; nil once stop is closed first (a nil stop never is).
func (p *Pipeline) takeSlab(stop <-chan struct{}) *hostBatch {
	select {
	case hb := <-p.spare:
		return hb
	case <-stop:
		return nil
	}
}

// recycleSlab returns a slab no stage references any more to the spares.
// Both schedules recycle a slab once its push has been handled; in the
// pipelined one the gradient queue is FIFO, so by then the worker is done
// with it.
func (p *Pipeline) recycleSlab(hb *hostBatch) {
	select {
	case p.spare <- hb:
	default:
	}
}

// gatherBatch is the fault-tolerant gather: it generates batch iter into the
// slab, from the streams its plan already holds and drawing the rest,
// retries injected transient faults with capped backoff, and converts
// panics from the data or embedding layers into errors so a faulty
// pre-fetcher cannot wedge the pipeline.
func (p *Pipeline) gatherBatch(ctx context.Context, d BatchSource, hb *hostBatch, batchSize int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: iter %d: %w", errGatherFailed, hb.iter, recoveredErr(r))
		}
	}()
	// Read before generating the batch. A planned batch's host streams were
	// drawn earlier, with its window (planFor), so only the device tables'
	// streams and the labels still lie between this read and the gather.
	// When a step trains faster than a batch is generated, a count read
	// after generation already covers every earlier push, and a
	// queue-depth-4 run reads no row through the cache at all. Which rows the
	// cache serves depends on this timing either way; their values do not.
	hb.gathered = p.applied.Load()
	hb.batch = d.BatchFrom(hb.batch, hb.plan, hb.iter, batchSize)
	for attempt := 0; ; attempt++ {
		ferr := p.injectFault(ctx, faults.OpGather, hb.iter, attempt)
		if ferr == nil {
			gerr := p.gather(hb)
			if gerr == nil {
				return nil
			}
			// A failed store gather is retryable in place: reads have no
			// side effects, so the same attempt loop that absorbs injected
			// faults also rides out transient remote-store outages.
			ferr = gerr
		}
		if attempt >= p.retry.MaxRetries {
			return fmt.Errorf("%w: iter %d after %d attempts: %w", errGatherFailed, hb.iter, attempt+1, ferr)
		}
		if berr := p.backoff(ctx, tidPrefetch, attempt); berr != nil {
			return fmt.Errorf("%w: iter %d: %w", errGatherFailed, hb.iter, berr)
		}
	}
}

// apply is the server side of the gradient queue: scatter −lr·grad into the
// host tables, then advance the applied-push counter that retires cache
// entries (their life cycle ends once the host copy is provably visible to
// gathers).
func (p *Pipeline) apply(hb *hostBatch) error {
	start := p.clock.Now()
	sp := p.tracer.Begin("apply", "ps", tidApply)
	defer func() {
		sp.End()
		d := obs.Since(p.clock, start)
		p.m.applyNS.Add(int64(d))
		p.m.applyHist.Observe(float64(d))
	}()
	for h := range hb.rows {
		hr := &hb.rows[h]
		if len(hr.uniq) == 0 {
			continue
		}
		// Nothing reads the step's gradient after apply: it becomes the
		// delta in place.
		tensor.Scale(-p.cfg.Model.LR, hr.grads.Data)
		if err := p.stores[h].ApplyDelta(hr.uniq, hr.grads); err != nil {
			// The push may have landed on some tables (or shards) but not
			// others; the caller reports training state as torn rather than
			// re-applying (a blind retry would double-count whatever did
			// land — the store's own transport retries are deduplicated,
			// this level's are not).
			return fmt.Errorf("host table %d: %w", h, err)
		}
	}
	// Incremented only after every table absorbed the push, so a gather that
	// reads the counter first can never overstate host freshness.
	p.applied.Add(1)
	return nil
}

// handled closes the step's donec, if the worker waits on one.
func (hb *hostBatch) handled() {
	if hb.donec != nil {
		close(hb.donec)
	}
}

// applyPush is the fault-tolerant apply: transient faults retry with
// backoff under ctx (Train passes one that is never cancelled — a cancelled
// drain still has to land every pending gradient), panics become errors,
// and the step's donec is always closed so drain barriers cannot hang.
func (p *Pipeline) applyPush(ctx context.Context, hb *hostBatch) (err error) {
	defer hb.handled()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: iter %d: %w", errApplyFailed, hb.iter, recoveredErr(r))
		}
	}()
	for attempt := 0; ; attempt++ {
		ferr := p.injectFault(ctx, faults.OpApply, hb.iter, attempt)
		if ferr == nil {
			if aerr := p.apply(hb); aerr != nil {
				return fmt.Errorf("%w: iter %d: %w", errApplyFailed, hb.iter, aerr)
			}
			// The gradient queue is FIFO, so when a window's last push has
			// been applied no earlier consumer can still hold the plan's
			// slices: it is safe to recycle the plan for a future window.
			if pl := hb.plan; pl != nil && hb.iter == pl.Start+pl.N-1 {
				pl.Release()
			}
			return nil
		}
		if attempt >= p.retry.MaxRetries {
			return fmt.Errorf("%w: iter %d after %d attempts: %w", errApplyFailed, hb.iter, attempt+1, ferr)
		}
		p.backoff(ctx, tidApply, attempt)
	}
}

// trainOne runs the worker side for one pre-fetched step: cache-sync the
// pre-fetched rows (Step 1 of Figure 9) and run forward/backward, which
// leaves every host table's gradient in the slab for the push. Panics —
// injected worker faults and genuine model faults alike — are converted to
// errors so a crashing worker cannot deadlock the queues.
func (p *Pipeline) trainOne(hb *hostBatch) (loss float32, err error) {
	defer func() {
		if r := recover(); r != nil {
			loss = 0
			err = fmt.Errorf("%w: iter %d: %w", errWorkerFault, hb.iter, recoveredErr(r))
		}
		for _, ad := range p.adapters {
			ad.current = nil
		}
	}()
	if p.cfg.Faults != nil {
		if ferr := p.cfg.Faults.Fault(faults.OpWorker, hb.iter, 0); ferr != nil {
			p.m.injectedFaults.Inc()
			p.tracer.Instant("fault", "fault", tidWorker)
			// Injected worker faults travel as panics on purpose: they are
			// raised here, before any model state is touched, and exercise
			// the same recover path that protects the queues from a real
			// worker crash.
			panic(ferr)
		}
	}
	start := p.clock.Now()
	sp := p.tracer.Begin("train", "ps", tidWorker)
	defer func() {
		sp.End()
		d := obs.Since(p.clock, start)
		p.m.trainNS.Add(int64(d))
		p.m.trainHist.Observe(float64(d))
	}()
	var prefetched, pinned int64
	for h := range hb.rows {
		hr := &hb.rows[h]
		if _, serr := p.caches[h].sync(int(hb.gathered), hb.iter, hr.uniq, hr.values, hr.fresh, hr.nextUse); serr != nil {
			return 0, fmt.Errorf("%w: iter %d: %w", errWorkerFault, hb.iter, serr)
		}
		// Only gathered rows crossed the host→device link; the rest were
		// deduplicated across batches and served from the cache.
		prefetched += int64(hr.freshN) * int64(p.cfg.Model.EmbDim) * 4
		pinned += int64(len(hr.uniq) - hr.freshN)
	}
	p.m.bytesPrefetched.Add(prefetched)
	p.m.lookaheadPinned.Add(pinned)
	if g := p.m.cacheEntries; g != nil {
		live := 0
		for _, c := range p.caches {
			live += c.Len()
		}
		g.Set(float64(live))
	}
	for h, ad := range p.adapters {
		ad.current = &hb.rows[h]
	}
	loss = p.model.TrainStep(hb.batch)
	var pushed int64
	for h := range hb.rows {
		hr := &hb.rows[h]
		if !hr.updated {
			return 0, fmt.Errorf("%w: host table %d did not receive an update at iter %d", errAdapterMisuse, h, hb.iter)
		}
		pushed += int64(len(hr.uniq)) * int64(p.cfg.Model.EmbDim) * 4
	}
	p.m.bytesPushed.Add(pushed)
	p.trained.Add(1)
	return loss, nil
}

// checkpointDue reports whether a periodic checkpoint fires at nextIter.
func (p *Pipeline) checkpointDue(nextIter int) bool {
	return p.cfg.Checkpoint.Path != "" && p.cfg.Checkpoint.Every > 0 &&
		nextIter > 0 && nextIter%p.cfg.Checkpoint.Every == 0
}

// writeCheckpoint persists the training state at nextIter and counts it.
// Callers must hold the drain invariant: no batch in flight, every pushed
// gradient applied.
func (p *Pipeline) writeCheckpoint(nextIter int) error {
	sp := p.tracer.Begin("checkpoint", "ps", tidWorker)
	err := error(nil)
	if p.cfg.Checkpoint.Coordinate != nil {
		err = p.cfg.Checkpoint.Coordinate(nextIter)
	}
	if err == nil {
		err = p.SaveCheckpoint(p.cfg.Checkpoint.Path, nextIter)
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("%w: %w", errCheckpointFailed, err)
	}
	p.m.checkpoints.Inc()
	return nil
}

// failSlot records the first failure observed by any pipeline goroutine.
type failSlot struct {
	mu        sync.Mutex
	err       error // guarded by mu
	resumable bool  // guarded by mu
}

func (f *failSlot) set(err error, resumable bool) {
	f.mu.Lock()
	if f.err == nil {
		f.err, f.resumable = err, resumable
	}
	f.mu.Unlock()
}

func (f *failSlot) get() (error, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err, f.resumable
}

// spawn starts one named pipeline stage on a new goroutine, registered on
// wg. Every goroutine in this package must be born here — the gospawn
// analyzer rejects bare go statements — so that a panic escaping a stage's
// own recover boundaries is converted into a recorded, non-resumable
// failure instead of killing the process and stranding the queues. fn's
// own defers (queue closes, drain barriers) run before the recovery, so
// cleanup survives even a panicking stage.
func (p *Pipeline) spawn(wg *sync.WaitGroup, fail *failSlot, stage string, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				fail.set(fmt.Errorf("%w: %s: %w", errPipelineFault, stage, recoveredErr(r)), false)
			}
		}()
		fn()
	}()
}

// Train runs steps batches of the given size from the dataset through the
// pipeline and returns the loss curve. Both schedules run one worker loop
// (gather → train → push, count, checkpoint) and differ only in where a
// batch comes from and where its gradients go. With QueueDepth > 1 a
// pre-fetch goroutine keeps the queue full and a server goroutine drains the
// gradient queue concurrently with worker compute; with QueueDepth == 1 the
// worker gathers and applies inline, strictly sequential on one thread (the
// EL-Rec (Sequential) baseline — the worker waits for the server each step,
// exactly as §VI-C describes). A pipeline with no host table always runs the
// sequential schedule: there is no server work to overlap. Both schedules
// produce bit-identical parameters: the embedding cache guarantees the
// worker always computes on up-to-date rows.
//
// Cancellation and faults drain gracefully: the pre-fetcher stops, the
// in-flight batch finishes, every pushed gradient is applied, and the
// returned TrainResult carries the partial loss curve plus the next
// resumable iteration. Transient gather/apply faults (from cfg.Faults)
// retry under cfg.Retry before becoming errors; worker panics surface as
// errWorkerFault instead of deadlocking the queues. When cfg.Checkpoint is
// set, the full training state is atomically persisted every Every steps at
// a drain barrier.
func (p *Pipeline) Train(ctx context.Context, d BatchSource, startIter, steps, batchSize int) (*TrainResult, error) {
	p.tracer.SetThreadName(tidPrefetch, "prefetch")
	p.tracer.SetThreadName(tidWorker, "worker")
	p.tracer.SetThreadName(tidApply, "apply")
	curve := &metrics.LossCurve{}
	res := &TrainResult{Curve: curve, NextIter: startIter, Resumable: true}

	ws, lerr := p.newWindowSchedule(d, startIter, steps, batchSize)
	if lerr != nil {
		return res, lerr
	}
	// The apply side must land every pushed gradient even during a cancelled
	// drain, so its backoff waits never end early.
	applyCtx := context.WithoutCancel(ctx)
	var async failSlot
	p.topUpSlabs()
	// gatherAt gathers batch iter into a spare step slab: nil on failure,
	// which leaves state consistent (the batch never reached the worker) and
	// is recorded unless it is the run's own cancellation, and nil when stop
	// closes while it waits for a slab.
	gatherAt := func(iter int, stop <-chan struct{}) *hostBatch {
		hb := p.takeSlab(stop)
		if hb == nil {
			return nil
		}
		hb.iter, hb.plan, hb.donec = iter, ws.planFor(iter), nil
		if err := p.gatherBatch(ctx, d, hb, batchSize); err != nil {
			if ctx.Err() == nil {
				async.set(err, true)
			}
			return nil
		}
		return hb
	}
	// applyOne lands one push and recycles its slab; false once it failed,
	// which leaves the host tables torn.
	applyOne := func(hb *hostBatch) bool {
		err := p.applyPush(applyCtx, hb)
		p.recycleSlab(hb)
		if err != nil {
			async.set(err, false)
		}
		return err == nil
	}

	// next hands the worker its next batch (false: none left, or the run
	// stopped); push hands its gradients to the server (false: the apply
	// failed); drain waits until every pushed gradient has been applied.
	var next func() (*hostBatch, bool)
	var push func(*hostBatch) bool
	drain := func() {}
	if !p.pipelined() {
		iter := startIter
		next = func() (*hostBatch, bool) {
			if iter >= startIter+steps {
				return nil, false
			}
			hb := gatherAt(iter, nil) // the one slab is back in the pool: applyOne recycled it
			iter++
			return hb, hb != nil
		}
		push = applyOne
	} else {
		prefetchQ := make(chan *hostBatch, p.cfg.QueueDepth)
		gradQ := make(chan *hostBatch, p.cfg.QueueDepth)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		p.spawn(&wg, &async, "prefetch", func() { // pre-fetcher (server pull side)
			defer close(prefetchQ)
			for iter := startIter; iter < startIter+steps && ctx.Err() == nil; iter++ {
				hb := gatherAt(iter, stop)
				if hb == nil {
					return
				}
				select {
				case prefetchQ <- hb:
				case <-stop:
					return
				case <-ctx.Done():
					return
				}
			}
		})
		p.spawn(&wg, &async, "apply", func() { // server apply side: drains even after cancel or failure
			broken := false
			for hb := range gradQ {
				if broken {
					// Still recycled: the pre-fetcher may be waiting for a
					// slab until the worker sees the failure and stops.
					hb.handled()
					p.recycleSlab(hb)
					continue
				}
				broken = !applyOne(hb)
			}
		})
		next = func() (*hostBatch, bool) {
			select {
			case hb, ok := <-prefetchQ: // !ok: every step gathered, or the pre-fetcher aborted
				return hb, ok
			case <-ctx.Done():
				return nil, false
			}
		}
		push = func(hb *hostBatch) bool {
			sp := p.tracer.Begin("push", "ps", tidWorker)
			gradQ <- hb
			sp.End()
			return true
		}
		// Graceful drain: stop the pre-fetcher, close the gradient queue
		// after the last push, and wait until the server has applied
		// everything.
		drain = func() {
			close(stop)
			close(gradQ)
			wg.Wait()
		}
	}

	for {
		if err, _ := async.get(); err != nil || ctx.Err() != nil {
			break
		}
		// The worker's wait for its batch — in the sequential schedule the
		// whole gather, window planning included — is the prefetch stall, so
		// depth-1 runs expose the same lookahead win the pipelined queue wait
		// does.
		waitStart := p.clock.Now()
		hb, ok := next()
		p.m.prefetchWaitNS.Add(int64(obs.Since(p.clock, waitStart)))
		if !ok {
			break
		}
		loss, err := p.trainOne(hb)
		if err != nil {
			async.set(err, faults.IsInjected(err))
			break
		}
		iter := hb.iter
		curve.Add(iter, float64(loss))
		if p.checkpointDue(iter + 1) {
			hb.donec = make(chan struct{})
		}
		done := hb.donec
		// From the push on the slab is apply's, which recycles it once
		// applied: nothing below may read hb.
		if !push(hb) {
			break
		}
		p.m.steps.Inc()
		res.Completed++
		res.NextIter = iter + 1
		if done != nil {
			// Drain barrier: the gradient queue is FIFO and the server
			// closes donec in order, so once this push has landed every
			// earlier one has too, and host tables exactly reflect
			// NextIter iterations of training.
			<-done
			if ferr, _ := async.get(); ferr != nil {
				break
			}
			if cerr := p.writeCheckpoint(res.NextIter); cerr != nil {
				async.set(cerr, true)
				break
			}
		}
	}
	drain()

	if err, resumable := async.get(); err != nil {
		res.Resumable = resumable
		if !resumable {
			res.NextIter = -1
		}
		return res, err
	}
	return res, ctx.Err()
}
