// Package elrec is the public API of this repository: a Go reproduction of
// "EL-Rec: Efficient Large-Scale Recommendation Model Training via
// Tensor-Train Embedding Table" (SC 2022).
//
// The package exposes three layers:
//
//   - The Eff-TT embedding bag (NewEffTTEmbeddingBag): a tensor-train
//     compressed, sum-pooling embedding table that is a drop-in replacement
//     for an uncompressed EmbeddingBag (NewEmbeddingBag), with the paper's
//     forward intermediate-result reuse and backward in-advance gradient
//     aggregation + fused update.
//
//   - Locality-based index reordering (BuildReordering): an offline
//     bijection over row ids built from access frequencies (global
//     information) and intra-batch co-occurrence (local information) via
//     modularity-based community detection.
//
//   - The EL-Rec training system (BuildSystem): a full DLRM with
//     HBM-capacity-aware table placement, an embedding parameter server
//     with pre-fetch/gradient queues, and the RAW-safe embedding cache.
//
// The deeper machinery lives in internal/ packages (tensor kernels, the
// DLRM model, the pipeline, baselines, the experiment harness); this facade
// re-exports the surface a downstream user needs.
package elrec

import (
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/reorder"
	"repro/internal/serve"
	"repro/internal/served"
	"repro/internal/tt"
)

// EmbeddingBag is the embedding-table abstraction shared by compressed and
// uncompressed tables: sum-pooling lookup over indices/offsets bags (the
// torch.nn.EmbeddingBag batch encoding) and a combined backward+SGD update.
type EmbeddingBag = dlrm.Table

// Options selects the Eff-TT optimizations; EffOptions enables the full
// set and NaiveOptions reproduces the TT-Rec baseline behaviour.
type Options = tt.Options

// EffOptions returns the full Eff-TT optimization set.
func EffOptions() Options { return tt.EffOptions() }

// NaiveOptions returns the TT-Rec baseline configuration (no reuse, no
// aggregation, unfused updates).
func NaiveOptions() Options { return tt.NaiveOptions() }

// NewEffTTEmbeddingBag builds a TT-compressed embedding bag for a rows×dim
// table at the given TT rank, initialized so materialized rows match the
// DLRM reference initialization scale. It is the drop-in replacement for
// NewEmbeddingBag: identical Lookup/Update semantics at a fraction of the
// memory.
func NewEffTTEmbeddingBag(rows, dim, rank int, seed uint64) (*tt.Table, error) {
	tbl, err := dlrm.TableSpec{Dim: dim, Rank: rank, Opts: tt.EffOptions(), Seed: seed}.Table(0, rows)
	if err != nil {
		return nil, err
	}
	return tbl.(*tt.Table), nil
}

// NewEmbeddingBag builds an uncompressed rows×dim embedding bag.
func NewEmbeddingBag(rows, dim int, seed uint64) *embedding.Bag {
	// A dense table has no error path: embedding.NewBag panics on a bad shape.
	tbl, _ := dlrm.TableSpec{Dim: dim, TTThreshold: -1, Seed: seed}.Table(0, rows)
	return tbl.(*embedding.Bag)
}

// DatasetSpec describes a synthetic CTR dataset; Avazu, Kaggle and Terabyte
// return presets mirroring the paper's three benchmarks at a cardinality
// scale (1.0 = the real datasets' sizes).
type DatasetSpec = data.Spec

// Avazu returns the Avazu-like preset.
func Avazu(scale float64) DatasetSpec { return data.AvazuSpec(scale) }

// Kaggle returns the Criteo-Kaggle-like preset.
func Kaggle(scale float64) DatasetSpec { return data.KaggleSpec(scale) }

// Terabyte returns the Criteo-Terabyte-like preset.
func Terabyte(scale float64) DatasetSpec { return data.TerabyteSpec(scale) }

// NewDataset instantiates a deterministic dataset from a spec.
func NewDataset(spec DatasetSpec) (*data.Dataset, error) { return data.New(spec) }

// ReorderConfig tunes index-reordering bijection generation.
type ReorderConfig = reorder.Config

// Bijection is a permutation of one table's row ids: At(raw) is raw's new
// id, and Apply / ApplyInPlace map a batch's indices. It stores only the
// rows its profile counted, and its size follows the profile, not the
// table.
type Bijection = reorder.Bijection

// BuildReordering builds the locality-based index bijection of one table
// from its access counts and a sample of batched indices (Algorithm 2 +
// Louvain community detection). The counts must be consistent with the
// batches, as the batches' own occurrence counts are: a negative count, or
// a batch index whose count is 0, is refused.
func BuildReordering(counts []int64, batches [][]int, cfg ReorderConfig) (*Bijection, error) {
	return reorder.Build(counts, batches, cfg)
}

// DefaultReorderConfig mirrors the paper's setup (5% hot rows).
func DefaultReorderConfig() ReorderConfig { return reorder.DefaultConfig() }

// ModelConfig describes the dense part of a DLRM (tower sizes, learning
// rate, embedding dimension).
type ModelConfig = dlrm.Config

// DLRMModel is the trainable/servable DLRM model — the type NewDLRM and
// System.Model return. Exported as an alias so callers outside the module
// can name it, e.g. when writing a ServingModelFactory closure.
type DLRMModel = dlrm.Model

// NewDLRM assembles a DLRM over the given embedding tables.
func NewDLRM(cfg ModelConfig, tables []EmbeddingBag) (*DLRMModel, error) {
	return dlrm.NewModel(cfg, tables)
}

// SystemConfig configures a full EL-Rec training system.
type SystemConfig = core.Config

// System is a built EL-Rec instance: compressed tables placed in simulated
// device memory, overflow tables behind the parameter-server pipeline, and
// index reordering applied to every batch.
type System = core.System

// DefaultSystemConfig returns a ready-to-train configuration for a dataset.
func DefaultSystemConfig(spec DatasetSpec) SystemConfig { return core.DefaultConfig(spec) }

// BuildSystem constructs an EL-Rec system: profiling, reordering, table
// construction with HBM-aware placement, and the pipeline when host memory
// is needed.
func BuildSystem(cfg SystemConfig) (*System, error) { return core.Build(cfg) }

// Ranker scores candidate items against a user context and returns the
// top-k, the ranking-stage inference pattern.
type Ranker = serve.Ranker

// RankContext is one user/request context for the Ranker.
type RankContext = serve.Context

// Scored pairs a candidate item with its predicted CTR.
type Scored = serve.Scored

// NewRanker wraps a trained model for candidate ranking; itemFeature is the
// categorical feature carrying the candidate item id. A Ranker is
// single-goroutine (its model owns reusable scratch); for concurrent
// traffic use NewServingPool.
func NewRanker(m *dlrm.Model, itemFeature, batchSize int) (*Ranker, error) {
	return serve.NewRanker(m, itemFeature, batchSize)
}

// ServingPool serves concurrent Score/TopK traffic over N isolated replicas
// of one trained model: per-replica deep-copied scratch over shared
// read-only TT cores, micro-batch request coalescing, and bounded-queue
// admission control with typed shedding. Results are bit-identical to the
// serial Ranker path. cmd/elrec-serve wraps it in an HTTP front end.
type ServingPool = served.Pool

// ServingOptions configures a ServingPool (replicas, queue depth, coalesce
// width, default deadline, clock, metrics registry).
type ServingOptions = served.Options

// ServingModelFactory builds a fresh model skeleton for checkpoint-backed
// serving; see ServingOptions.Factory and NewServingPoolFromCheckpoint.
type ServingModelFactory = served.ModelFactory

// NewServingPool clones model into Options.Replicas serving replicas. The
// pool's clones share model's embedding cores read-only, so model must not
// train while this pool serves it; a continuously retraining trainer should
// checkpoint and go through NewServingPoolFromCheckpoint plus
// ServingPool.SwapFromCheckpoint (or POST /reload on the HTTP handler),
// which hot-swap new versions in with zero dropped requests.
func NewServingPool(m *dlrm.Model, itemFeature, batchSize int, opts ServingOptions) (*ServingPool, error) {
	return served.New(m, itemFeature, batchSize, opts)
}

// NewServingPoolFromCheckpoint builds a serving pool whose first model
// version is loaded from a SaveModel checkpoint: opts.Factory constructs
// the architecture skeleton and the checkpoint bytes fill it, so the pool
// owns every parameter it serves and never aliases a live trainer's memory.
// The path becomes the default SwapFromCheckpoint / POST /reload source.
func NewServingPoolFromCheckpoint(path string, itemFeature, batchSize int, opts ServingOptions) (*ServingPool, error) {
	return served.NewFromCheckpoint(path, itemFeature, batchSize, opts)
}

// Typed serving-pool shedding errors (match with errors.Is): a full
// admission queue, a request that out-waited its deadline, and a draining
// pool.
var (
	ErrServingOverloaded = served.ErrOverloaded
	ErrServingDeadline   = served.ErrDeadline
	ErrServingShutdown   = served.ErrShutdown
)

// SaveModel / LoadModel checkpoint a trained model to and from a file,
// including TT cores and Adagrad state.
func SaveModel(path string, m *dlrm.Model) error { return checkpoint.SaveFile(path, m) }

// LoadModel restores a checkpoint saved with SaveModel into a model with
// the same architecture.
func LoadModel(path string, m *dlrm.Model) error { return checkpoint.LoadFile(path, m) }

// Fault-tolerant training surface. System.TrainContext trains under a
// context: cancellation drains the pipeline gracefully (in-flight batch
// finishes, every queued gradient is applied) and the returned TrainResult
// carries the partial loss curve plus the next resumable iteration.
// SystemConfig.Checkpoint.Path/Every enable periodic atomic
// training checkpoints; System.SaveCheckpoint and System.ResumeFrom persist
// and restore them, and a resumed run is bit-identical to one that never
// stopped.

// TrainResult is what System.TrainContext hands back, on success and on
// failure alike: the (possibly partial) loss curve, the number of completed
// iterations, the next resumable iteration and whether the in-memory
// parameters are consistent.
type TrainResult = ps.TrainResult

// TrainStats aggregates pipeline counters, including the fault-tolerance
// counters (injected faults, retries, backoff time, checkpoints written).
type TrainStats = ps.Stats

// RetryPolicy bounds transient-fault retries in the pipeline (capped
// exponential backoff); the zero value takes defaults.
type RetryPolicy = ps.RetryPolicy

// FaultInjector decides, per attempt, whether a pipeline operation faults.
// Set SystemConfig.Faults to inject deterministic failures for chaos and
// recovery testing; nil trains fault-free.
type FaultInjector = faults.Injector

// FaultConfig parameterizes NewSeededFaults: per-attempt probabilities for
// transient gather/apply failures, slow-server stalls and a fatal worker
// fault, all drawn deterministically from the seed.
type FaultConfig = faults.Config

// NewSeededFaults builds a deterministic fault injector: the same seed and
// schedule inject the same faults, so failure handling is replayable.
func NewSeededFaults(cfg FaultConfig) FaultInjector { return faults.NewSeeded(cfg) }

// IsInjected reports whether err originates from a fault injector rather
// than a genuine failure.
func IsInjected(err error) bool { return faults.IsInjected(err) }

// Observability surface. Set SystemConfig.Metrics to a registry and every
// component the build wires up exports its instruments into it: the
// parameter-server pipeline (ps_* counters, cache hits/misses, stage-latency
// histograms) and the Eff-TT tables (tt_* reuse and aggregation counters
// with derived ratio gauges). Set SystemConfig.Trace to a tracer and the
// pipeline records per-stage spans exportable as Chrome trace-event JSON.

// MetricsRegistry collects named counters, gauges and histograms from a
// training system; snapshot it with Snapshot for a JSON-marshalable view.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry ready to hang off
// SystemConfig.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsSnapshot is a point-in-time copy of a registry's instruments,
// JSON-marshalable under lowercase counters/gauges/histograms keys.
type MetricsSnapshot = obs.Snapshot

// Tracer records named spans from the pipeline stages; export them with
// WriteChromeTrace for chrome://tracing or Perfetto.
type Tracer = obs.Tracer

// NewTracer returns a tracer on the system clock, ready to hang off
// SystemConfig.Trace.
func NewTracer() *Tracer { return obs.NewTracer(nil) }
