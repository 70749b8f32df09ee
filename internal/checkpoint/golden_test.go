package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tt"
)

// goldenIter is the next iteration testdata/training.golden records.
const goldenIter = 17

// goldenModel is fuzzSkeleton with every float it checkpoints — dense
// parameters, table weights, TT cores and both kinds of Adagrad
// accumulator — overwritten by one exactly representable sequence, so the
// golden files pin every record's bytes and a load into a fresh skeleton
// has something to restore.
func goldenModel(t testing.TB) *dlrm.Model {
	m := fuzzSkeleton(t)
	seq := 0
	fill := func(v []float32) {
		for i := range v {
			v[i] = float32(seq%251-125) / 64
			seq++
		}
	}
	for _, p := range m.MLPParams() {
		fill(p.Value.Data)
	}
	for _, table := range m.Tables {
		switch tbl := table.(type) {
		case *embedding.Bag:
			fill(tbl.Weights.Data)
		case *embedding.AdagradBag:
			fill(tbl.Weights.Data)
			for r := 0; r < tbl.NumRows(); r++ {
				fill(tbl.AccumRow(r))
			}
		case *tt.Table:
			for k := 0; k < tt.Dims; k++ {
				fill(tbl.Cores[k].Data)
				if tbl.AdagradEnabled() {
					fill(tbl.AdagradAccum(k).Data)
				}
			}
		}
	}
	return m
}

// TestGoldenFiles pins the model and training formats. The two files in
// testdata were written by the writers that preceded internal/codec: the
// writers reproduce them byte for byte, and a file loaded into a fresh
// skeleton saves back as the same bytes, so the readers restore every
// record. The training file carries every table kind and a remote marker.
func TestGoldenFiles(t *testing.T) {
	cases := []struct {
		file string
		save func(*bytes.Buffer, *dlrm.Model) error
		load func([]byte, *dlrm.Model) error
	}{
		{"model.golden",
			func(w *bytes.Buffer, m *dlrm.Model) error { return SaveModel(w, m) },
			func(b []byte, m *dlrm.Model) error { return LoadModel(bytes.NewReader(b), m) }},
		{"training.golden",
			func(w *bytes.Buffer, m *dlrm.Model) error {
				return SaveTraining(w, m, fuzzResolve, TrainState{NextIter: goldenIter})
			},
			func(b []byte, m *dlrm.Model) error {
				st, err := LoadTraining(bytes.NewReader(b), m, fuzzResolve)
				if err == nil && st.NextIter != goldenIter {
					t.Errorf("training.golden: NextIter = %d, want %d", st.NextIter, goldenIter)
				}
				return err
			}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.save(&got, goldenModel(t)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: the writer's %d bytes differ from the %d golden bytes", c.file, got.Len(), len(want))
		}
		m := fuzzSkeleton(t)
		if err := c.load(want, m); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		got.Reset()
		if err := c.save(&got, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: loaded into a fresh skeleton, it saves back as different bytes", c.file)
		}
	}
}
