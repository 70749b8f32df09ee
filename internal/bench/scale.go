package bench

import (
	"time"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Scale controls how large the experiments run. The paper's parameters
// (batch 4K, rank 128/64, full Criteo cardinalities) are reachable by
// raising these; the defaults keep a full sweep tractable on a CPU while
// preserving every relative comparison.
type Scale struct {
	// DatasetScale multiplies the real datasets' cardinalities.
	DatasetScale float64
	// Batch is the training batch size (paper: 4096).
	Batch int
	// Steps is the number of measured batches per configuration.
	Steps int
	// WarmSteps run before measurement.
	WarmSteps int
	// EmbDim is the embedding dimension (paper: 128 with rank 128 on V100).
	EmbDim int
	// Rank is the TT rank.
	Rank int
	// TTThresholdRows: tables at or above this many (scaled) rows get
	// TT-compressed, mirroring the paper's >1M-row rule scaled down.
	TTThresholdRows int
	// TrainSteps is the step count for accuracy/convergence experiments.
	TrainSteps int
	// Lookahead is the data-pipeline planning window for the pipecache
	// experiment (0 = nothing planned, N≥2 = oracle prefetching over N
	// batches). Overridable with elrec-bench -lookahead.
	Lookahead int
	// Metrics, when non-nil, receives the instruments of every system the
	// experiments build (pipeline ps_*, TT tt_* counters); cmd/elrec-bench
	// snapshots it into the BENCH_<id>.json artifacts. Excluded from the
	// artifact's own scale record.
	Metrics *obs.Registry `json:"-"`
}

// Quick returns the smallest useful scale (used by unit-style bench tests).
func Quick() Scale {
	return Scale{
		DatasetScale:    0.001,
		Batch:           256,
		Steps:           6,
		WarmSteps:       1,
		EmbDim:          16,
		Rank:            8,
		TTThresholdRows: 1000,
		TrainSteps:      300,
		Lookahead:       8,
	}
}

// Default returns the scale cmd/elrec-bench uses out of the box: large
// enough that reuse/aggregation effects dominate overheads, small enough to
// sweep every experiment in minutes.
func Default() Scale {
	return Scale{
		DatasetScale:    0.01,
		Batch:           2048,
		Steps:           12,
		WarmSteps:       2,
		EmbDim:          32,
		Rank:            16,
		TTThresholdRows: 10_000,
		TrainSteps:      1500,
		Lookahead:       16,
	}
}

// modelConfig builds the dense-model configuration for a dataset spec.
func modelConfig(spec data.Spec, sc Scale) dlrm.Config {
	return dlrm.Config{
		NumDense:    spec.NumDense,
		EmbDim:      sc.EmbDim,
		BottomSizes: []int{64, 32},
		TopSizes:    []int{64, 32},
		LR:          1.0,
		Seed:        17,
	}
}

// datasets returns the three evaluation datasets at the given scale.
func datasets(sc Scale) []data.Spec {
	return []data.Spec{
		data.AvazuSpec(sc.DatasetScale),
		data.TerabyteSpec(sc.DatasetScale),
		data.KaggleSpec(sc.DatasetScale),
	}
}

// timeIt measures fn's wall time against the system clock (benchmarks run
// against real time by definition; the obs funnel still applies so the
// call is auditable).
func timeIt(fn func()) time.Duration {
	clock := obs.System()
	start := clock.Now()
	fn()
	return obs.Since(clock, start)
}

// singleTableSpec builds a one-table dataset used by the standalone
// embedding-table workloads (Figures 13/14/17/18): Zipf-skewed with hidden
// group locality so index reordering has structure to exploit.
func singleTableSpec(rows int, seed uint64) data.Spec {
	return data.Spec{
		Name:         "table-workload",
		NumDense:     1,
		TableRows:    []int{rows},
		ZipfS:        1.15,
		ZipfV:        2,
		GroupSize:    64,
		ActiveGroups: 8,
		Locality:     0.8,
		Samples:      1 << 30,
		Seed:         seed,
	}
}

// gradFor builds a fixed pseudo-random output gradient for table-only
// training workloads.
func gradFor(batch, dim int, seed uint64) *tensor.Matrix {
	g := tensor.New(batch, dim)
	tensor.NewRNG(seed).FillUniform(g.Data, 0.1)
	return g
}

// links used across end-to-end experiments.
var (
	pcie   = hw.PCIe3x16()
	nvlink = hw.NVLinkPair()
)
