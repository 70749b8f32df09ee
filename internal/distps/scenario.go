package distps

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/ps"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// Scenario is the shared description of one distributed training run: the
// dataset, the model towers, and the placement split. Every participant —
// PS shards, workers, and the single-process reference — derives its
// configuration from the same Scenario, which is what makes the
// distributed run bit-comparable to the reference: identical seeds flow to
// identical table constructors on every side.
//
// Placement rule (mirroring the paper's hybrid layout): tables with at
// least TTThreshold rows are TT-compressed and live on the device; the
// rest are the "overflow" host tables, sharded across the PS by the
// consistent-hash ring.
type Scenario struct {
	Spec  data.Spec
	Model dlrm.Config

	Rank        int
	TTThreshold int

	// Seed drives host-table initialization (shards and the reference both
	// draw table i from ps.HostRNG(Seed, i)) and the TT tables' seeds
	// (dlrm.TableSpec.Table).
	Seed uint64

	QueueDepth int
}

// NewScenario builds the Scenario of the run spec elrec-ps and elrec-worker
// both parse, with core.RunSpec.Towers' towers and RunSpec.Model's table
// seed, so identical flags give every participant identical configurations.
// queueDepth ≤ 0 takes the default 4.
func NewScenario(run core.RunSpec, queueDepth int) (Scenario, error) {
	spec, err := run.Validate()
	if err != nil {
		return Scenario{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if queueDepth <= 0 {
		queueDepth = 4
	}
	return Scenario{Spec: spec, Model: run.Towers(spec), Rank: run.Rank, TTThreshold: run.TTThreshold,
		Seed: spec.Seed, QueueDepth: queueDepth}, nil
}

// tableSpec is the run's table construction rule (dlrm.TableSpec): which
// tables are TT-compressed on the device, and their seeds.
func (sc Scenario) tableSpec() dlrm.TableSpec {
	return dlrm.TableSpec{Dim: sc.Model.EmbDim, Rank: sc.Rank, TTThreshold: sc.TTThreshold,
		Opts: tt.EffOptions(), Seed: sc.Seed}
}

// HostSpecs lists the host-placed (sharded) tables, in model order.
func (sc Scenario) HostSpecs() []TableSpec {
	var out []TableSpec
	spec := sc.tableSpec()
	for i, rows := range sc.Spec.TableRows {
		if !spec.Compressed(rows) {
			out = append(out, TableSpec{Index: i, Rows: rows})
		}
	}
	return out
}

// tableLocs builds the pipeline placement. stores == nil places host
// tables in local memory (the single-process reference); otherwise each
// host table is backed by the store the callback returns. Only the TT
// tables are built here: a host table's rows belong to the pipeline or the
// shards.
func (sc Scenario) tableLocs(stores func(TableSpec) ps.HostStore) ([]ps.TableLoc, error) {
	locs := make([]ps.TableLoc, len(sc.Spec.TableRows))
	spec := sc.tableSpec()
	for i, rows := range sc.Spec.TableRows {
		switch {
		case spec.Compressed(rows):
			tbl, err := spec.Table(i, rows)
			if err != nil {
				return nil, fmt.Errorf("table %d: %w", i, err)
			}
			locs[i] = ps.TableLoc{Device: tbl}
		case stores != nil:
			locs[i] = ps.TableLoc{Store: stores(TableSpec{Index: i, Rows: rows})}
		default:
			locs[i] = ps.TableLoc{HostRows: rows}
		}
	}
	return locs, nil
}

// ReferenceLocs places every host table in local process memory — the
// single-process reference the distributed run must match bit-exactly.
func (sc Scenario) ReferenceLocs() ([]ps.TableLoc, error) {
	return sc.tableLocs(nil)
}

// remoteLocs places every host table behind the shard-set client. ctx
// bounds every RPC the resulting stores issue (see Client.Store).
func (sc Scenario) remoteLocs(ctx context.Context, c *Client) ([]ps.TableLoc, error) {
	return sc.tableLocs(func(spec TableSpec) ps.HostStore { return c.Store(ctx, spec) })
}

// PipelineConfig is the ps.Config skeleton both modes share.
func (sc Scenario) PipelineConfig() ps.Config {
	return ps.Config{Model: sc.Model, QueueDepth: sc.QueueDepth, Seed: sc.Seed}
}

// ShardConfig derives shard id's configuration.
func (sc Scenario) ShardConfig(id, numShards int, dir string) ShardConfig {
	return ShardConfig{ID: id, NumShards: numShards, Dim: sc.Model.EmbDim, Seed: sc.Seed,
		Tables: sc.HostSpecs(), Dir: dir}
}

// clientConfig derives a worker's client configuration.
func (sc Scenario) clientConfig(workerID uint64, shards []string) ClientConfig {
	return ClientConfig{WorkerID: workerID, Shards: shards, Dim: sc.Model.EmbDim,
		Seed: sc.Seed, Tables: sc.HostSpecs()}
}

// --- state fingerprinting --------------------------------------------------

// GatherFullTable reads every row of one host table through a store — the
// observer path for comparing a sharded run against a reference.
func GatherFullTable(store ps.HostStore, spec TableSpec) (*tensor.Matrix, error) {
	rows := make([]int, spec.Rows)
	for i := range rows {
		rows[i] = i
	}
	out := tensor.New(spec.Rows, store.Dim())
	if err := store.GatherRows(rows, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// HashState returns a stable FNV-1a/64 fingerprint of the full training
// state of p: MLP parameters, device tables, and the supplied host-table
// contents (one matrix per HostSpecs entry, in order). Both the worker
// (host values gathered from the shards) and the reference (host values
// read from local bags) hash through the same checkpoint serialization, so
// equal fingerprints mean bit-identical parameters.
func HashState(p *ps.Pipeline, host []TableSpec, hostValues []*tensor.Matrix) (uint64, error) {
	if len(host) != len(hostValues) {
		return 0, fmt.Errorf("%w: %d host specs, %d value matrices", errBadRequest, len(host), len(hostValues))
	}
	slot := make(map[int]int, len(host))
	for h, spec := range host {
		if hostValues[h] == nil || hostValues[h].Rows != spec.Rows {
			return 0, fmt.Errorf("%w: host table %d values missing or mis-shaped", errBadRequest, spec.Index)
		}
		slot[spec.Index] = h
	}
	resolve := func(i int, t dlrm.Table) dlrm.Table {
		h, ok := slot[i]
		if !ok {
			return t
		}
		m := hostValues[h]
		bag := embedding.NewBag(m.Rows, m.Cols, tensor.NewRNG(1))
		copy(bag.Weights.Data, m.Data)
		return bag
	}
	hash := fnv.New64a()
	if err := checkpoint.SaveTraining(hash, p.Model(), resolve, checkpoint.TrainState{}); err != nil {
		return 0, err
	}
	return hash.Sum64(), nil
}
