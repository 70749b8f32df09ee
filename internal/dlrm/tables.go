package dlrm

import (
	"fmt"
	"math"

	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// TableSpec selects how the embedding layer is built.
type TableSpec struct {
	Dim  int // embedding dimension
	Rank int // TT rank for compressed tables
	// TTThreshold: tables with at least this many rows are TT-compressed;
	// smaller tables stay dense (the paper compresses tables above 1M rows
	// and keeps the rest uncompressed). 0 compresses everything,
	// a negative value compresses nothing.
	TTThreshold int
	Opts        tt.Options // optimization set for the TT tables
	Seed        uint64
}

// Compressed reports whether the spec TT-compresses a table of rows rows.
// It is the one compression rule: every builder of a run's tables asks it.
func (s TableSpec) Compressed(rows int) bool {
	return s.TTThreshold >= 0 && rows >= s.TTThreshold
}

// Table builds table i of the spec, a rows×Dim table: an Eff-TT table with
// the spec's Opts when Compressed(rows) (TT-Rec's sampled-Gaussian init,
// σ = √(1/rows)), otherwise a dense Bag; both draw from a generator seeded
// by Seed and i. It is the one constructor of a run's tables, so every module
// that rebuilds table i — core.Build, the distributed reference and workers,
// serving — gets the same bits.
func (s TableSpec) Table(i, rows int) (Table, error) {
	rng := tensor.NewRNG(s.Seed + uint64(i)*7919)
	if !s.Compressed(rows) {
		return embedding.NewBag(rows, s.Dim, rng), nil
	}
	shape, err := tt.NewShape(rows, s.Dim, s.Rank)
	if err != nil {
		return nil, err
	}
	tbl := tt.NewTable(shape, rng, math.Sqrt(1/float64(rows)))
	tbl.Opts = s.Opts
	return tbl, nil
}

// BuildTables constructs one table per cardinality in rows following the
// spec (Table(i, rows[i])). Returns the tables plus how many of them are
// TT-compressed.
func BuildTables(rows []int, spec TableSpec) ([]Table, int, error) {
	if spec.Dim <= 0 {
		return nil, 0, fmt.Errorf("dlrm: invalid embedding dim %d", spec.Dim)
	}
	tables := make([]Table, len(rows))
	compressed := 0
	for i, r := range rows {
		if r <= 0 {
			return nil, 0, fmt.Errorf("dlrm: table %d has %d rows", i, r)
		}
		tbl, err := spec.Table(i, r)
		if err != nil {
			return nil, 0, fmt.Errorf("dlrm: table %d: %w", i, err)
		}
		if spec.Compressed(r) {
			compressed++
		}
		tables[i] = tbl
	}
	return tables, compressed, nil
}
