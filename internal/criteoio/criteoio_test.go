package criteoio

import (
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/dlrm"
	"repro/internal/tt"
)

// tinySchema: 2 dense + 3 categorical features.
func tinySchema() Schema {
	return Schema{NumDense: 2, TableRows: []int{10, 100, 1000}}
}

// line builds one TSV record for the tiny schema.
func line(label string, dense []string, cats []string) string {
	fields := append([]string{label}, dense...)
	fields = append(fields, cats...)
	return strings.Join(fields, "\t")
}

func TestSchemaValidate(t *testing.T) {
	if err := tinySchema().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Schema{NumDense: -1, TableRows: []int{1}}).Validate() == nil {
		t.Fatal("negative dense accepted")
	}
	if (Schema{NumDense: 1}).Validate() == nil {
		t.Fatal("no tables accepted")
	}
	if (Schema{NumDense: 1, TableRows: []int{0}}).Validate() == nil {
		t.Fatal("zero-row table accepted")
	}
}

func TestReadBatchBasics(t *testing.T) {
	input := strings.Join([]string{
		line("1", []string{"3", "0"}, []string{"a1b2", "ffee", "0001"}),
		line("0", []string{"", "7"}, []string{"", "ffee", "beef"}),
	}, "\n")
	r, err := NewReader(strings.NewReader(input), tinySchema())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 2 {
		t.Fatalf("batch size %d", b.Size())
	}
	if b.Labels[0] != 1 || b.Labels[1] != 0 {
		t.Fatalf("labels %v", b.Labels)
	}
	// log(3+1) transform; empty and 0 both map to 0.
	if math.Abs(float64(b.Dense.At(0, 0))-math.Log(4)) > 1e-6 {
		t.Fatalf("dense[0][0] = %v", b.Dense.At(0, 0))
	}
	if b.Dense.At(0, 1) != 0 || b.Dense.At(1, 0) != 0 {
		t.Fatal("zero/empty dense not mapped to 0")
	}
	// Hashing: in range, deterministic, equal values collide on purpose.
	for tt2, col := range b.Sparse {
		for _, idx := range col {
			if idx < 0 || idx >= tinySchema().TableRows[tt2] {
				t.Fatalf("table %d index %d out of range", tt2, idx)
			}
		}
	}
	if b.Sparse[1][0] != b.Sparse[1][1] {
		t.Fatal("identical categorical values must hash identically")
	}
	// Empty categorical maps to 0.
	if b.Sparse[0][1] != 0 {
		t.Fatalf("empty categorical mapped to %d", b.Sparse[0][1])
	}
	// Offsets are the single-valued layout.
	if b.Offsets[0] != 0 || b.Offsets[1] != 1 {
		t.Fatalf("offsets %v", b.Offsets)
	}
}

func TestReadBatchEOFAndShortFinal(t *testing.T) {
	input := line("1", []string{"1", "1"}, []string{"x", "y", "z"})
	r, _ := NewReader(strings.NewReader(input), tinySchema())
	b, err := r.ReadBatch(5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 1 || b.Dense.Rows != 1 {
		t.Fatalf("short batch size %d rows %d", b.Size(), b.Dense.Rows)
	}
	if _, err := r.ReadBatch(5); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadBatchErrors(t *testing.T) {
	cases := []string{
		"1\t2", // too few fields
		line("7", []string{"1", "1"}, []string{"a", "b", "c"}), // bad label
		line("1", []string{"x", "1"}, []string{"a", "b", "c"}), // bad dense
	}
	for _, input := range cases {
		r, _ := NewReader(strings.NewReader(input), tinySchema())
		if _, err := r.ReadBatch(4); err == nil {
			t.Fatalf("malformed input accepted: %q", input)
		}
	}
	r, _ := NewReader(strings.NewReader(""), tinySchema())
	if _, err := r.ReadBatch(0); err == nil {
		t.Fatal("zero batch size accepted")
	}
}

func TestNegativeDenseClampsToZero(t *testing.T) {
	input := line("0", []string{"-5", "2"}, []string{"a", "b", "c"})
	r, _ := NewReader(strings.NewReader(input), tinySchema())
	b, err := r.ReadBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dense.At(0, 0) != 0 {
		t.Fatalf("negative dense %v not clamped", b.Dense.At(0, 0))
	}
}

// TestBatchesTrainModel: real-format data flows straight into the DLRM.
func TestBatchesTrainModel(t *testing.T) {
	schema := tinySchema()
	var lines []string
	cats := []string{"aa", "bb", "cc", "dd"}
	for i := 0; i < 64; i++ {
		label := "0"
		if i%3 == 0 {
			label = "1"
		}
		lines = append(lines, line(label,
			[]string{"1", "2"},
			[]string{cats[i%4], cats[(i+1)%4], cats[(i+2)%4]}))
	}
	r, _ := NewReader(strings.NewReader(strings.Join(lines, "\n")), schema)

	tables, _, err := dlrm.BuildTables(schema.TableRows, dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 500, Opts: tt.EffOptions(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dlrm.NewModel(dlrm.Config{
		NumDense: 2, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 2,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := r.ReadBatch(16)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		m.TrainStep(b)
	}
}
