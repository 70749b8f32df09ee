package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tt"
)

func TestTrainingRoundTripRestoresStateAndIter(t *testing.T) {
	d, _ := data.New(ckptSpec())
	src := buildModel(t, 30)
	for it := 0; it < 8; it++ {
		src.TrainStep(d.Batch(it, 32))
	}
	var buf bytes.Buffer
	if err := SaveTraining(&buf, src, nil, TrainState{NextIter: 8}); err != nil {
		t.Fatal(err)
	}
	dst := buildModel(t, 31)
	st, err := loadTraining(bytes.NewReader(buf.Bytes()), dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextIter != 8 {
		t.Fatalf("NextIter = %d want 8", st.NextIter)
	}
	probe := d.Batch(50, 16)
	if diff := dst.Forward(probe).MaxAbsDiff(src.Forward(probe)); diff != 0 {
		t.Fatalf("restored training state deviates by %v", diff)
	}
}

func TestTrainingFileAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.ckpt")
	src := buildModel(t, 32)
	n, err := SaveTrainingFile(path, src, nil, TrainState{NextIter: 120})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("SaveTrainingFile reported %d bytes, file has %v (%v)", n, fi, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	dst := buildModel(t, 33)
	st, err := LoadTrainingFile(path, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextIter != 120 {
		t.Fatalf("NextIter = %d want 120", st.NextIter)
	}
	if _, err := SaveTrainingFile(filepath.Join(t.TempDir(), "no", "dir", "x.ckpt"), src, nil, TrainState{}); err == nil {
		t.Fatal("save to bad path succeeded")
	}
}

// TestTrainingRejectsNegativeIteration: no run writes a negative next
// iteration, so a file that holds one is corrupt.
func TestTrainingRejectsNegativeIteration(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveTraining(&buf, buildModel(t, 35), nil, TrainState{NextIter: 8}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, next := range []int64{-1, math.MinInt64} {
		binary.LittleEndian.PutUint64(raw[8:], uint64(next)) // the iteration follows the 8-byte header
		if _, err := loadTraining(bytes.NewReader(raw), buildModel(t, 36), nil); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("next iteration %d: err = %v, want ErrCorruptCheckpoint", next, err)
		}
	}
}

// TestTrainingRejectsModelEnvelope checks the two envelopes are not
// interchangeable: a model file is not a training checkpoint and vice versa.
func TestTrainingRejectsModelEnvelope(t *testing.T) {
	m := buildModel(t, 34)
	var model, training bytes.Buffer
	if err := SaveModel(&model, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveTraining(&training, m, nil, TrainState{NextIter: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTraining(bytes.NewReader(model.Bytes()), m, nil); err == nil {
		t.Fatal("model file accepted as a training checkpoint")
	}
	if err := LoadModel(bytes.NewReader(training.Bytes()), m); err == nil {
		t.Fatal("training checkpoint accepted as a model file")
	}
}

// TestAdagradBagRoundTrip covers the optimizer-state table kind: the dense
// bag plus its per-row Adagrad accumulator survive the round trip exactly.
func TestAdagradBagRoundTrip(t *testing.T) {
	build := func(seed uint64) (*dlrm.Model, *embedding.AdagradBag) {
		bag := embedding.NewAdagradBag(embedding.NewBag(64, 8, tensorRNG(seed)))
		m, err := dlrm.NewModel(dlrm.Config{
			NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: seed,
		}, []dlrm.Table{bag})
		if err != nil {
			t.Fatal(err)
		}
		return m, bag
	}
	src, srcBag := build(40)
	spec := ckptSpec()
	spec.TableRows = []int{64}
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 6; it++ {
		src.TrainStep(d.Batch(it, 32))
	}
	var buf bytes.Buffer
	if err := SaveTraining(&buf, src, nil, TrainState{NextIter: 6}); err != nil {
		t.Fatal(err)
	}
	dst, dstBag := build(41)
	if _, err := loadTraining(bytes.NewReader(buf.Bytes()), dst, nil); err != nil {
		t.Fatal(err)
	}
	if diff := dstBag.Weights.MaxAbsDiff(srcBag.Weights); diff != 0 {
		t.Fatalf("weights deviate by %v", diff)
	}
	for r := 0; r < 64; r++ {
		want, got := srcBag.AccumRow(r), dstBag.AccumRow(r)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("Adagrad accumulator row %d deviates", r)
			}
		}
	}
}

// TestResolverSubstitutesTables checks TableResolver on both paths: a model
// whose table is a non-serializable wrapper saves and loads through the
// resolved backing bag (the pipeline-adapter scenario).
func TestResolverSubstitutesTables(t *testing.T) {
	backing := embedding.NewBag(32, 8, tensorRNG(50))
	m, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 50,
	}, []dlrm.Table{unsupportedTable{backing}})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(i int, tbl dlrm.Table) dlrm.Table {
		if w, ok := tbl.(unsupportedTable); ok {
			return w.Table
		}
		return tbl
	}
	var buf bytes.Buffer
	if err := SaveTraining(&buf, m, nil, TrainState{}); err == nil {
		t.Fatal("wrapper table saved without a resolver")
	}
	buf.Reset()
	if err := SaveTraining(&buf, m, resolve, TrainState{NextIter: 3}); err != nil {
		t.Fatal(err)
	}
	restored := embedding.NewBag(32, 8, tensorRNG(51))
	m2, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 51,
	}, []dlrm.Table{unsupportedTable{restored}})
	if err != nil {
		t.Fatal(err)
	}
	resolve2 := func(i int, tbl dlrm.Table) dlrm.Table {
		if w, ok := tbl.(unsupportedTable); ok {
			return w.Table
		}
		return tbl
	}
	st, err := loadTraining(bytes.NewReader(buf.Bytes()), m2, resolve2)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextIter != 3 {
		t.Fatalf("NextIter = %d want 3", st.NextIter)
	}
	if diff := restored.Weights.MaxAbsDiff(backing.Weights); diff != 0 {
		t.Fatalf("resolved table deviates by %v", diff)
	}
}

// TestMixedTTTrainingCheckpoint round-trips the Figure 16 configuration —
// a device TT table next to a dense bag — through the training envelope.
func TestMixedTTTrainingCheckpoint(t *testing.T) {
	d, _ := data.New(ckptSpec())
	src := buildModel(t, 60)
	src.Tables[1].(*tt.Table).EnableAdagrad()
	for it := 0; it < 5; it++ {
		src.TrainStep(d.Batch(it, 32))
	}
	var buf bytes.Buffer
	if err := SaveTraining(&buf, src, nil, TrainState{NextIter: 5}); err != nil {
		t.Fatal(err)
	}
	dst := buildModel(t, 61)
	if _, err := loadTraining(bytes.NewReader(buf.Bytes()), dst, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Tables[1].(*tt.Table).AdagradEnabled() {
		t.Fatal("TT Adagrad state lost through the training envelope")
	}
	probe := d.Batch(40, 16)
	if diff := dst.Forward(probe).MaxAbsDiff(src.Forward(probe)); diff != 0 {
		t.Fatalf("mixed checkpoint deviates by %v", diff)
	}
}
