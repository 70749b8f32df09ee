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

// BuildTables constructs one table per cardinality in rows following the
// spec. Returns the tables plus how many of them are TT-compressed.
func BuildTables(rows []int, spec TableSpec) ([]Table, int, error) {
	if spec.Dim <= 0 {
		return nil, 0, fmt.Errorf("dlrm: invalid embedding dim %d", spec.Dim)
	}
	tables := make([]Table, 0, len(rows))
	compressed := 0
	for i, r := range rows {
		if r <= 0 {
			return nil, 0, fmt.Errorf("dlrm: table %d has %d rows", i, r)
		}
		useTT := spec.TTThreshold >= 0 && r >= spec.TTThreshold
		if useTT {
			shape, err := tt.NewShape(r, spec.Dim, spec.Rank)
			if err != nil {
				return nil, 0, fmt.Errorf("dlrm: table %d: %w", i, err)
			}
			tbl := tt.NewTable(shape, tensor.NewRNG(spec.Seed+uint64(i)*7919), math.Sqrt(1/float64(r)))
			tbl.Opts = spec.Opts
			tables = append(tables, tbl)
			compressed++
		} else {
			tables = append(tables, embedding.NewBag(r, spec.Dim, tensor.NewRNG(spec.Seed+uint64(i)*7919)))
		}
	}
	return tables, compressed, nil
}

// MustDenseTable builds one uncompressed table (a convenience for placement
// code that has already validated its inputs).
func MustDenseTable(rows, dim int, seed uint64) Table {
	return embedding.NewBag(rows, dim, tensor.NewRNG(seed))
}
