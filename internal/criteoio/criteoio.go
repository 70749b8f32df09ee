// Package criteoio reads the Criteo click-log TSV format — the actual
// on-disk format of the paper's Criteo Kaggle and Criteo Terabyte datasets
// (label \t 13 integer features \t 26 hexadecimal categorical features,
// tab-separated, empty fields allowed) — and turns it into training
// batches. Categorical values hash into each table's index range (the
// standard DLRM preprocessing when no vocabulary file is used); integer
// features get the log(x+1) transform the reference implementation applies.
// The synthetic generator (internal/data) stands in when the real data is
// unavailable; this package makes the rest of the system directly usable on
// the real thing.
package criteoio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/tensor"
)

// Schema describes the file layout and target table sizes.
type Schema struct {
	NumDense  int   // integer feature count (13 for Criteo)
	TableRows []int // hash range per categorical feature (26 for Criteo)
}

// Validate reports whether the schema is usable.
func (s Schema) Validate() error {
	if s.NumDense < 0 {
		return fmt.Errorf("criteoio: negative dense count %d", s.NumDense)
	}
	if len(s.TableRows) == 0 {
		return fmt.Errorf("criteoio: no categorical tables")
	}
	for i, r := range s.TableRows {
		if r <= 0 {
			return fmt.Errorf("criteoio: table %d has %d rows", i, r)
		}
	}
	return nil
}

// Reader streams batches from a Criteo TSV stream.
type Reader struct {
	schema  Schema
	scanner *bufio.Scanner
	line    int
}

// NewReader wraps an io.Reader producing Criteo TSV lines.
func NewReader(r io.Reader, schema Schema) (*Reader, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &Reader{schema: schema, scanner: sc}, nil
}

// ReadBatch reads up to size samples. It returns io.EOF (with a nil batch)
// when the stream is exhausted before any sample is read; a short final
// batch is returned without error.
func (r *Reader) ReadBatch(size int) (*data.Batch, error) {
	if size <= 0 {
		return nil, fmt.Errorf("criteoio: non-positive batch size %d", size)
	}
	s := r.schema
	b := &data.Batch{
		Dense:  tensor.New(size, s.NumDense),
		Sparse: make([][]int, len(s.TableRows)),
	}
	for t := range b.Sparse {
		b.Sparse[t] = make([]int, 0, size)
	}
	n := 0
	for n < size && r.scanner.Scan() {
		r.line++
		if err := r.parseLine(r.scanner.Text(), b, n); err != nil {
			return nil, err
		}
		n++
	}
	if err := r.scanner.Err(); err != nil {
		return nil, fmt.Errorf("criteoio: line %d: %w", r.line, err)
	}
	if n == 0 {
		return nil, io.EOF
	}
	// Shrink to the actual sample count.
	if n < size {
		dense := tensor.New(n, s.NumDense)
		copy(dense.Data, b.Dense.Data[:n*s.NumDense])
		b.Dense = dense
	}
	b.Offsets = make([]int, n)
	for i := range b.Offsets {
		b.Offsets[i] = i
	}
	b.Labels = b.Labels[:n]
	return b, nil
}

// parseLine fills sample row of the batch from one TSV line.
func (r *Reader) parseLine(line string, b *data.Batch, row int) error {
	s := r.schema
	fields := strings.Split(line, "\t")
	want := 1 + s.NumDense + len(s.TableRows)
	if len(fields) != want {
		return fmt.Errorf("criteoio: line %d has %d fields, want %d", r.line, len(fields), want)
	}
	// Label.
	switch strings.TrimSpace(fields[0]) {
	case "0", "":
		b.Labels = append(b.Labels, 0)
	case "1":
		b.Labels = append(b.Labels, 1)
	default:
		return fmt.Errorf("criteoio: line %d has label %q", r.line, fields[0])
	}
	// Dense: log(x+1) on non-negative ints; empty/negative → 0 (the DLRM
	// reference maps missing and negative values to 0).
	for f := 0; f < s.NumDense; f++ {
		raw := strings.TrimSpace(fields[1+f])
		var v float64
		if raw != "" {
			x, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return fmt.Errorf("criteoio: line %d dense field %d: %w", r.line, f, err)
			}
			if x > 0 {
				v = math.Log(float64(x) + 1)
			}
		}
		b.Dense.Set(row, f, float32(v))
	}
	// Categorical: hex string hashed into the table range; empty → slot 0.
	for t := range s.TableRows {
		raw := strings.TrimSpace(fields[1+s.NumDense+t])
		idx := 0
		if raw != "" {
			idx = int(hashString(raw) % uint64(s.TableRows[t]))
		}
		b.Sparse[t] = append(b.Sparse[t], idx)
	}
	return nil
}

// hashString is FNV-1a, the usual cheap categorical hasher.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
