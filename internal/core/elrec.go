// Package core composes the paper's three contributions into the EL-Rec
// training system: Eff-TT compressed embedding tables (internal/tt),
// locality-based index reordering (internal/reorder) and the TT-based
// pipeline over a parameter server for whatever does not fit in device
// memory (internal/ps). Build performs the same placement decisions the
// paper describes — compress large tables into Eff-TT form, keep them in
// HBM, spill any remaining dense parameters to host memory — and returns a
// System ready to train.
package core

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/ps"
	"repro/internal/reorder"
	"repro/internal/tt"
)

// Placement says where one embedding table ended up.
type Placement string

// Placement values.
const (
	PlaceTTDevice    Placement = "tt-device"    // TT-compressed, in HBM
	PlaceDenseDevice Placement = "dense-device" // uncompressed, in HBM
	PlaceHost        Placement = "host"         // uncompressed, host memory via PS
)

// Config configures a full EL-Rec system over one dataset: the pipeline run
// (ps.Config, embedded: model, queue depth, lookahead, seed, faults, retry,
// checkpoints, metrics, trace) plus what Build decides before a pipeline
// exists — the dataset, compression, reordering, optimiser and placement.
type Config struct {
	ps.Config

	Data data.Spec

	// Rank is the TT rank; TTThreshold is the minimum row count for a table
	// to be TT-compressed (the paper compresses tables above 1M rows).
	// TTThreshold < 0 disables compression entirely (the DLRM baseline).
	Rank        int
	TTThreshold int
	Opts        tt.Options

	// Reorder enables locality-based index reordering for the compressed
	// tables, driven by ProfileBatches×ProfileBatchSize profiled batches.
	Reorder          bool
	ReorderCfg       reorder.Config
	ProfileBatches   int
	ProfileBatchSize int

	// Adagrad switches the embedding tables from plain SGD to row-wise
	// (dense tables) / core-wise (TT tables) Adagrad. Host-resident tables
	// keep SGD (the parameter server applies raw gradient deltas).
	Adagrad bool

	// Device provides the HBM budget for placement; HBMReserve is held back
	// for activations and optimizer state.
	Device     hw.Device
	HBMReserve int64
}

// DefaultConfig returns a ready-to-train configuration for a dataset spec.
func DefaultConfig(spec data.Spec) Config {
	model := dlrm.DefaultConfig(spec.NumDense, 16)
	model.LR = 1.0
	return Config{
		Config:           ps.Config{Model: model, QueueDepth: 4, Seed: 7},
		Data:             spec,
		Rank:             8,
		TTThreshold:      10_000,
		Opts:             tt.EffOptions(),
		Reorder:          true,
		ReorderCfg:       reorder.DefaultConfig(),
		ProfileBatches:   16,
		ProfileBatchSize: 512,
		Device:           hw.TeslaV100(),
		HBMReserve:       1 << 30,
	}
}

// System is a built EL-Rec instance.
type System struct {
	Cfg        Config
	Dataset    *data.Dataset
	Bijections []*reorder.Bijection // per table; nil entry = identity
	Placements []Placement
	Pipeline   *ps.Pipeline // non-nil when any table lives on the host

	// pipe is the underlying trainer even when no table spilled to host
	// (Pipeline == nil); it runs every step and carries the checkpoint
	// machinery.
	pipe      *ps.Pipeline
	model     *dlrm.Model
	source    ps.BatchSource
	evalBatch *data.Batch // Evaluate's batch, regenerated in place per held-out batch

	// DeviceBytes / HostBytes are the embedding parameter footprints after
	// placement.
	DeviceBytes int64
	HostBytes   int64
}

// Build constructs the system: dataset, profiling, reordering bijections,
// table construction with HBM-aware placement, and the pipeline when host
// memory is needed.
func Build(cfg Config) (*System, error) {
	d, err := data.New(cfg.Data)
	if err != nil {
		return nil, err
	}
	return BuildWithDataset(cfg, d)
}

// BuildWithDataset is Build over an existing dataset (so several systems in
// one experiment share the generator).
func BuildWithDataset(cfg Config, d *data.Dataset) (*System, error) {
	if cfg.Model.EmbDim <= 0 {
		return nil, fmt.Errorf("core: invalid embedding dim %d", cfg.Model.EmbDim)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	s := &System{Cfg: cfg, Dataset: d}
	rows := cfg.Data.TableRows
	s.Bijections = make([]*reorder.Bijection, len(rows))
	s.Placements = make([]Placement, len(rows))

	// dlrm.TableSpec owns compression, table kind and seeds; placement,
	// Adagrad and instruments are this function's.
	spec := dlrm.TableSpec{Dim: cfg.Model.EmbDim, Rank: cfg.Rank, TTThreshold: cfg.TTThreshold,
		Opts: cfg.Opts, Seed: cfg.Seed}

	// Profile + reorder the compressed tables.
	if cfg.Reorder {
		if cfg.ProfileBatches <= 0 || cfg.ProfileBatchSize <= 0 {
			return nil, fmt.Errorf("core: reordering requires profile batches")
		}
		// Reordering reads only the compressed tables' columns of the
		// profiled batches, so only those streams are generated, all
		// through one generator.
		var gen data.Generator
		for i, r := range rows {
			if !spec.Compressed(r) {
				continue
			}
			counts := make([]int64, r)
			cols := make([][]int, cfg.ProfileBatches)
			for it := range cols {
				cols[it] = d.IndicesInto(&gen, nil, it, cfg.ProfileBatchSize, i)
				for _, idx := range cols[it] {
					counts[idx]++
				}
			}
			bij, err := reorder.Build(counts, cols, cfg.ReorderCfg)
			if err != nil {
				return nil, fmt.Errorf("core: reorder table %d: %w", i, err)
			}
			s.Bijections[i] = bij
		}
	}

	// Construct tables with HBM-aware placement: TT tables first (tiny, in
	// HBM), then dense tables while they fit, the remainder on the host.
	budget := cfg.Device.HBMBytes - cfg.HBMReserve
	locs := make([]ps.TableLoc, len(rows))
	for i, r := range rows {
		if !spec.Compressed(r) {
			continue
		}
		t, err := spec.Table(i, r)
		if err != nil {
			return nil, fmt.Errorf("core: table %d: %w", i, err)
		}
		tbl := t.(*tt.Table)
		if cfg.Adagrad {
			tbl.EnableAdagrad()
		}
		if cfg.Metrics != nil {
			tbl.AttachMetrics(cfg.Metrics)
		}
		locs[i] = ps.TableLoc{Device: tbl}
		s.Placements[i] = PlaceTTDevice
		budget -= tbl.FootprintBytes()
		s.DeviceBytes += tbl.FootprintBytes()
	}
	if budget < 0 {
		return nil, fmt.Errorf("core: TT tables alone exceed the HBM budget by %d bytes", -budget)
	}
	anyHost := false
	for i, r := range rows {
		if spec.Compressed(r) {
			continue
		}
		bytes := int64(r) * int64(cfg.Model.EmbDim) * 4
		if bytes <= budget {
			bag, err := spec.Table(i, r)
			if err != nil {
				return nil, fmt.Errorf("core: table %d: %w", i, err)
			}
			if cfg.Adagrad {
				bag = embedding.NewAdagradBag(bag.(*embedding.Bag))
			}
			locs[i] = ps.TableLoc{Device: bag}
			s.Placements[i] = PlaceDenseDevice
			budget -= bytes
			s.DeviceBytes += bytes
		} else {
			locs[i] = ps.TableLoc{HostRows: r}
			s.Placements[i] = PlaceHost
			s.HostBytes += bytes
			anyHost = true
		}
	}

	pcfg := cfg.Config
	if !anyHost {
		// A fully device-resident system has no server side to measure;
		// registering its pipeline's instruments would shadow a live pipeline
		// sharing the registry with ps_* readings that count no host traffic.
		pcfg.Metrics = nil
		pcfg.Trace = nil
	}
	pipe, err := ps.NewPipeline(pcfg, locs)
	if err != nil {
		return nil, err
	}
	if anyHost {
		s.Pipeline = pipe
	}
	s.pipe = pipe
	s.model = pipe.Model()
	s.source = &remappedSource{d: d, bijections: s.Bijections}
	return s, nil
}

// remappedSource applies the per-table index bijections to every batch.
type remappedSource struct {
	d          *data.Dataset
	bijections []*reorder.Bijection
}

// Batch generates batch iter into a fresh batch and remaps its sparse
// indices.
func (r *remappedSource) Batch(iter, size int) *data.Batch { return r.BatchFrom(nil, nil, iter, size) }

// BatchFrom generates batch iter into dst (nil: a fresh batch) from the
// raw streams plan holds, drawing the rest (data.Dataset.BatchFrom), and
// remaps its sparse indices in place. Labels come from the raw ids.
func (r *remappedSource) BatchFrom(dst *data.Batch, plan *data.WindowPlan, iter, size int) *data.Batch {
	b := r.d.BatchFrom(dst, plan, iter, size)
	for t, bij := range r.bijections {
		if bij != nil {
			bij.ApplyInPlace(b.Sparse[t])
		}
	}
	return b
}

// IndicesInto draws table t's raw index stream of batch iter into dst
// through g: the stream a lookahead plan keeps for BatchFrom.
func (r *remappedSource) IndicesInto(g *data.Generator, dst []int, iter, size, t int) []int {
	return r.d.IndicesInto(g, dst, iter, size, t)
}

// RemapInto writes table t's training ids for the raw stream ids into dst's
// storage — the ids Batch remaps them to, which the lookahead planner plans
// on — or reports false when t has no bijection.
func (r *remappedSource) RemapInto(dst, ids []int, t int) ([]int, bool) {
	bij := r.bijections[t]
	if bij == nil {
		return dst, false
	}
	dst = append(dst[:0], ids...)
	bij.ApplyInPlace(dst)
	return dst, true
}

// Model returns the underlying DLRM.
func (s *System) Model() *dlrm.Model { return s.model }

// Source returns the (remapped) batch source the system trains on.
func (s *System) Source() ps.BatchSource { return s.source }

// TrainContext runs steps batches through the system's pipeline with
// cancellation, fault handling and periodic checkpointing. On cancellation
// or failure the pipeline drains gracefully and the returned TrainResult
// carries the partial loss curve plus the next resumable iteration; see
// ps.Pipeline.Train for the consistency contract.
func (s *System) TrainContext(ctx context.Context, startIter, steps, batchSize int) (*ps.TrainResult, error) {
	// Also with no steps to run: a caller that loops until its steps are
	// done must see the cancellation, not zero progress and no error.
	if err := ctx.Err(); err != nil {
		return &ps.TrainResult{Curve: &metrics.LossCurve{}, NextIter: startIter, Resumable: true}, err
	}
	// A fully device-resident system trains on the same pipeline, which
	// runs its sequential schedule when no table lives on the host.
	return s.pipe.Train(ctx, s.source, startIter, steps, batchSize)
}

// Train is the legacy convenience wrapper: no cancellation, panics on a
// pipeline fault (without an injector configured, faults cannot occur, so
// the experiment harness and the facade's Examples keep their simple shape).
func (s *System) Train(startIter, steps, batchSize int) *metrics.LossCurve {
	//elrec:rootctx documented legacy API: Train has no cancellation by contract
	res, err := s.TrainContext(context.Background(), startIter, steps, batchSize)
	if err != nil {
		panic(err)
	}
	return res.Curve
}

// SaveCheckpoint atomically persists the full training state (model,
// optimizer state, host tables, iteration counter) to path. Call between
// Train invocations, or rely on Cfg.Checkpoint.Path/Every for
// periodic checkpoints inside Train.
func (s *System) SaveCheckpoint(path string, nextIter int) error {
	return s.pipe.SaveCheckpoint(path, nextIter)
}

// ResumeFrom restores a checkpoint written by SaveCheckpoint into this
// system (which must be built with the same configuration) and returns the
// next iteration to train. Resumed training is bit-identical to a run that
// never stopped.
func (s *System) ResumeFrom(path string) (int, error) {
	return s.pipe.LoadCheckpoint(path)
}

// SaveModel writes the trained model to path as a weights-only file
// (checkpoint.SaveFile) for a server to load. Such a file carries parameters
// and nothing else, so a system whose state does not fit in it is refused,
// see CanSaveModel.
func (s *System) SaveModel(path string) error {
	if err := s.CanSaveModel(); err != nil {
		return err
	}
	return checkpoint.SaveFile(path, s.model)
}

// CanSaveModel reports why SaveModel refuses this system, nil when it does
// not: a pipelined system keeps tables in host memory the model file has no
// place for, and a reordered one trained its tables on remapped ids — the
// file does not carry the bijections, so a server would look raw ids up in
// the wrong rows. The answer is fixed at Build.
func (s *System) CanSaveModel() error {
	if s.Pipeline != nil {
		return fmt.Errorf("core: a weights-only model file needs a fully device-resident model and this one trains host tables through the pipeline; persist it as a training checkpoint instead (elrec-train -checkpoint)")
	}
	for i, bij := range s.Bijections {
		if bij != nil {
			return fmt.Errorf("core: table %d is trained on reordered ids and a weights-only model file does not carry the bijection, so a server would score through the wrong rows; build with Reorder off (elrec-train -no-reorder)", i)
		}
	}
	return nil
}

// Evaluate computes held-out accuracy and AUC over batches starting at
// startIter. The held-out batches are generated into one reused batch and
// scored into result slices sized once, so beyond those results (and the
// metrics' own sort) a call on a device-resident system allocates a
// constant.
func (s *System) Evaluate(startIter, batches, batchSize int) (acc, auc float64) {
	n := max(batches, 0) * batchSize
	probs, labels := make([]float32, n), make([]float32, n)
	for it := 0; it < batches; it++ {
		s.evalBatch = s.source.BatchFrom(s.evalBatch, nil, startIter+it, batchSize)
		at := it * batchSize
		nn.SigmoidInto(probs[at:at+batchSize], s.model.Forward(s.evalBatch).Data)
		copy(labels[at:], s.evalBatch.Labels)
	}
	return metrics.Accuracy(probs, labels, 0.5), metrics.AUC(probs, labels)
}

// CompressionRatio returns uncompressed embedding bytes over placed bytes.
func (s *System) CompressionRatio() float64 {
	raw := s.Cfg.Data.EmbeddingBytes(s.Cfg.Model.EmbDim)
	placed := s.DeviceBytes + s.HostBytes
	if placed == 0 {
		return 0
	}
	return float64(raw) / float64(placed)
}
