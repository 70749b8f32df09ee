package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tt"
)

// skeleton builds the model the checkpoint tests decode into: one table of
// every checkpointable kind — a dense Bag, an AdagradBag, a TT table with
// Adagrad and one without — and a last Bag that fuzzResolve turns into a
// remote-table marker in the training envelope. Tables have dim
// embedding columns and bagRows, bagRows−1, ttRows, ttRows and bagRows−2
// rows.
func skeleton(t testing.TB, numDense, dim, ttRows, bagRows int) *dlrm.Model {
	t.Helper()
	shape, err := tt.NewShape(ttRows, dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	ttAdagrad := tt.NewTable(shape, tensorRNG(3), 0.1)
	ttAdagrad.EnableAdagrad()
	m, err := dlrm.NewModel(dlrm.Config{NumDense: numDense, EmbDim: dim, LR: 0.5, Seed: 1}, []dlrm.Table{
		embedding.NewBag(bagRows, dim, tensorRNG(1)),
		embedding.NewAdagradBag(embedding.NewBag(bagRows-1, dim, tensorRNG(2))),
		ttAdagrad,
		tt.NewTable(shape, tensorRNG(4), 0.1),
		embedding.NewBag(bagRows-2, dim, tensorRNG(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenSkeleton is the shape testdata/*.golden were written at.
func goldenSkeleton(t testing.TB) *dlrm.Model { return skeleton(t, 2, 8, 27, 6) }

// fuzzSkeleton is the fuzz targets' model: the smallest skeleton, so a
// valid file (the seeds' base) is a few hundred bytes and the fuzz engine
// spends its time mutating inputs rather than minimising them.
func fuzzSkeleton(t testing.TB) *dlrm.Model { return skeleton(t, 1, 1, 2, 3) }

// fuzzResolve checkpoints the skeleton's last table on a (notional) remote
// shard.
func fuzzResolve(i int, tbl dlrm.Table) dlrm.Table {
	if i == 4 {
		return nil
	}
	return tbl
}

// checkFixedPoint holds an accepted input to the codec's fixed point: what
// was decoded encodes back to the input itself (a version 1–3 header
// re-encodes as 3), and decoding and encoding that gives the same bytes
// again. load decodes into a fresh skeleton; save encodes it.
func checkFixedPoint(t *testing.T, in []byte, load func([]byte, *dlrm.Model) error, save func(*bytes.Buffer, *dlrm.Model) error) {
	m := fuzzSkeleton(t)
	if load(in, m) != nil {
		return
	}
	var enc1, enc2 bytes.Buffer
	if err := save(&enc1, m); err != nil {
		t.Fatalf("encoding an accepted input: %v", err)
	}
	want := append([]byte(nil), in...)
	binary.LittleEndian.PutUint32(want[4:8], version)
	if !bytes.Equal(enc1.Bytes(), want) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(in), enc1.Len())
	}
	m = fuzzSkeleton(t)
	if err := load(enc1.Bytes(), m); err != nil {
		t.Fatalf("decoding a re-encoded input: %v", err)
	}
	if err := save(&enc2, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
		t.Fatal("decode → encode is not a fixed point")
	}
}

// FuzzLoadModel: LoadModel never panics on arbitrary bytes, and an input it
// accepts is a fixed point of decode → encode.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkFixedPoint(t, in,
			func(b []byte, m *dlrm.Model) error { return LoadModel(bytes.NewReader(b), m) },
			func(w *bytes.Buffer, m *dlrm.Model) error { return SaveModel(w, m) })
	})
}

// FuzzLoadTraining is FuzzLoadModel for the training envelope, whose last
// table is a remote-table marker.
func FuzzLoadTraining(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var st TrainState
		checkFixedPoint(t, in,
			func(b []byte, m *dlrm.Model) (err error) {
				st, err = loadTraining(bytes.NewReader(b), m, fuzzResolve)
				return err
			},
			func(w *bytes.Buffer, m *dlrm.Model) error { return SaveTraining(w, m, fuzzResolve, st) })
	})
}
