package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// tensorRNG is a shorthand for seeded generators in tests.
func tensorRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }

func ckptSpec() data.Spec {
	return data.Spec{
		Name: "ckpt", NumDense: 3, TableRows: []int{200, 1500},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 51,
	}
}

// buildModel builds a mixed model: table 0 dense, table 1 TT.
func buildModel(t *testing.T, seed uint64) *dlrm.Model {
	t.Helper()
	tables, n, err := dlrm.BuildTables(ckptSpec().TableRows,
		dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 1000, Opts: tt.EffOptions(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expected 1 compressed table, got %d", n)
	}
	m, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: seed,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTripRestoresPredictions(t *testing.T) {
	d, _ := data.New(ckptSpec())
	src := buildModel(t, 1)
	for it := 0; it < 10; it++ {
		src.TrainStep(d.Batch(it, 32))
	}

	var buf bytes.Buffer
	if err := SaveModel(&buf, src); err != nil {
		t.Fatal(err)
	}

	// A fresh model with different init must predict differently, then
	// identically after loading.
	dst := buildModel(t, 999)
	probe := d.Batch(50, 16)
	before := dst.Forward(probe)
	want := src.Forward(probe)
	if before.MaxAbsDiff(want) == 0 {
		t.Fatal("fresh model already matches; test has no power")
	}
	if err := LoadModel(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	after := dst.Forward(probe)
	if d := after.MaxAbsDiff(want); d != 0 {
		t.Fatalf("restored model deviates by %v", d)
	}
}

func TestRoundTripAdagradState(t *testing.T) {
	src := buildModel(t, 2)
	ttTbl := src.Tables[1].(*tt.Table)
	ttTbl.EnableAdagrad()
	d, _ := data.New(ckptSpec())
	for it := 0; it < 5; it++ {
		src.TrainStep(d.Batch(it, 32))
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := buildModel(t, 3)
	if err := LoadModel(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	got := dst.Tables[1].(*tt.Table)
	if !got.AdagradEnabled() {
		t.Fatal("Adagrad state not restored")
	}
	for k := 0; k < tt.Dims; k++ {
		if d := got.AdagradAccum(k).MaxAbsDiff(ttTbl.AdagradAccum(k)); d != 0 {
			t.Fatalf("accumulator %d deviates by %v", k, d)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	src := buildModel(t, 4)
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	dst := buildModel(t, 5)
	if err := LoadFile(path, dst); err != nil {
		t.Fatal(err)
	}
	d, _ := data.New(ckptSpec())
	probe := d.Batch(0, 8)
	if src.Forward(probe).MaxAbsDiff(dst.Forward(probe)) != 0 {
		t.Fatal("file round trip changed predictions")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	m := buildModel(t, 6)
	if err := LoadModel(bytes.NewReader([]byte("not a checkpoint")), m); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated valid header.
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := LoadModel(bytes.NewReader(buf.Bytes()[:20]), m); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestLoadRejectsArchitectureMismatch(t *testing.T) {
	src := buildModel(t, 7)
	var buf bytes.Buffer
	if err := SaveModel(&buf, src); err != nil {
		t.Fatal(err)
	}
	// A model with a different table shape must be rejected.
	tables, _, err := dlrm.BuildTables([]int{200, 3000},
		dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 1000, Opts: tt.EffOptions(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	other, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 8,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadModel(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

func TestSaveRejectsUnsupportedTable(t *testing.T) {
	// A model whose table is neither Bag nor tt.Table (here: a pipeline
	// adapter stand-in via an anonymous implementation) cannot be saved.
	m := buildModel(t, 9)
	m.Tables[0] = unsupportedTable{m.Tables[0]}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err == nil {
		t.Fatal("unsupported table type accepted")
	}
}

type unsupportedTable struct{ dlrm.Table }

// failingWriter errors after n bytes, exercising the write error paths.
type failingWriter struct{ remaining int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errWriteFailed
	}
	n := len(p)
	if n > f.remaining {
		n = f.remaining
	}
	f.remaining -= n
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

var errWriteFailed = os.ErrClosed

func TestSaveWriteFailures(t *testing.T) {
	m := buildModel(t, 20)
	// Fail at several cut points: header, params, tables.
	for _, budget := range []int{0, 4, 30, 2000} {
		if err := SaveModel(&failingWriter{remaining: budget}, m); err == nil {
			t.Fatalf("save with %d-byte budget succeeded", budget)
		}
	}
}

func TestSaveFileToBadPath(t *testing.T) {
	m := buildModel(t, 21)
	if err := SaveFile("/nonexistent-dir/x/y.ckpt", m); err == nil {
		t.Fatal("save to bad path succeeded")
	}
	if err := LoadFile("/nonexistent-dir/x/y.ckpt", m); err == nil {
		t.Fatal("load from bad path succeeded")
	}
}

func TestLoadRejectsWrongVersionAndKind(t *testing.T) {
	m := buildModel(t, 22)
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version field (bytes 4..8).
	raw := append([]byte(nil), buf.Bytes()...)
	raw[4] = 0xFF
	if err := LoadModel(bytes.NewReader(raw), m); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("wrong version: err = %v, want ErrCorruptCheckpoint", err)
	}
	// Swap the first table kind byte: find it right after the MLP params.
	// Easier: load into a model whose table kinds are swapped.
	tables, _, err := dlrm.BuildTables([]int{200, 1500},
		dlrm.TableSpec{Dim: 8, Rank: 4, TTThreshold: 0, Opts: tt.EffOptions(), Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	allTT, err := dlrm.NewModel(dlrm.Config{
		NumDense: 3, EmbDim: 8, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 23,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadModel(bytes.NewReader(buf.Bytes()), allTT); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("mismatched table kind: err = %v, want an architecture mismatch", err)
	}
}

// TestTTAdagradFlagOutOfRangeIsCorrupt: a TT table's Adagrad flag is 0 or
// 1; any other byte is a corrupt file, not "no Adagrad state".
func TestTTAdagradFlagOutOfRangeIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, buildModel(t, 27)); err != nil {
		t.Fatal(err)
	}
	// The TT table is the last record and has no Adagrad state, so its
	// flag is the file's last byte.
	raw := buf.Bytes()
	if raw[len(raw)-1] != 0 {
		t.Fatalf("last byte is %d, expected the TT table's Adagrad flag 0", raw[len(raw)-1])
	}
	for _, flag := range []byte{2, 0xFF} {
		raw[len(raw)-1] = flag
		if err := LoadModel(bytes.NewReader(raw), buildModel(t, 28)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("Adagrad flag %d: err = %v, want ErrCorruptCheckpoint", flag, err)
		}
	}
}

// TestTTAdagradMismatchRefused: an SGD TT table does not load into an
// Adagrad one (it would continue from zero accumulators). Like the dense
// bags' kind mismatch, that is an architecture mismatch, not corruption.
func TestTTAdagradMismatchRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, buildModel(t, 29)); err != nil {
		t.Fatal(err)
	}
	dst := buildModel(t, 30)
	dst.Tables[1].(*tt.Table).EnableAdagrad()
	err := LoadModel(bytes.NewReader(buf.Bytes()), dst)
	if err == nil {
		t.Fatal("an SGD TT table loaded into an Adagrad-enabled one")
	}
	if errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v: an optimizer mismatch is not a corrupt file", err)
	}
}

// TestGeneralTTRefused: the arbitrary-order table is an experiment and test
// oracle, not a checkpointable kind. A model that holds one is refused on
// both sides, and the kind byte it used to be written under (2) stays
// reserved — a file that carries it is rejected whatever table the model
// expects there, never reinterpreted.
func TestGeneralTTRefused(t *testing.T) {
	shape, err := tt.NewGeneralShape(300, 16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dlrm.Config{NumDense: 2, EmbDim: 16, BottomSizes: []int{8}, TopSizes: []int{8}, LR: 0.5, Seed: 1}
	build := func(table dlrm.Table) *dlrm.Model {
		m, err := dlrm.NewModel(cfg, []dlrm.Table{table})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	general := build(tt.NewGeneralTable(shape, tensorRNG(1), 0.1))
	if err := SaveModel(io.Discard, general); err == nil {
		t.Fatal("SaveModel accepted a model holding a *tt.GeneralTable")
	}

	// A dense-bag file: the table record is the last thing in it, one kind
	// byte followed by the 300×16 matrix (two int64 dimensions + the data).
	bag := build(embedding.NewBag(300, 16, tensorRNG(2)))
	var buf bytes.Buffer
	if err := SaveModel(&buf, bag); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	kindAt := len(file) - (1 + 16 + 300*16*4)
	if file[kindAt] != kindBag {
		t.Fatalf("byte %d is %d, expected the dense-bag kind byte", kindAt, file[kindAt])
	}
	if err := LoadModel(bytes.NewReader(file), general); err == nil {
		t.Fatal("LoadModel accepted a model holding a *tt.GeneralTable")
	}
	file[kindAt] = 2
	ttShape, err := tt.NewShape(300, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*dlrm.Model{
		"dense bag": bag,
		"TT table":  build(tt.NewTable(ttShape, tensorRNG(3), 0.1)),
		"general":   general,
	} {
		if err := LoadModel(bytes.NewReader(file), m); err == nil {
			t.Fatalf("a file with the reserved kind byte 2 loaded into a %s model", name)
		}
	}
}

// TestLoadTruncationTable saves a full training checkpoint, then replays
// the load against a table of truncation points spanning every section of
// the file — magic, header, MLP parameters, table records, and the
// training-state trailer. Every strict prefix must fail with the typed
// ErrCorruptCheckpoint sentinel so recovery code can tell a torn file from
// an architecture mismatch.
func TestLoadTruncationTable(t *testing.T) {
	src := buildModel(t, 21)
	var buf bytes.Buffer
	if err := SaveTraining(&buf, src, nil, TrainState{NextIter: 17}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if len(whole) < 64 {
		t.Fatalf("checkpoint suspiciously small: %d bytes", len(whole))
	}
	cuts := []struct {
		name string
		n    int
	}{
		{"empty file", 0},
		{"inside magic", 2},
		{"after magic", 4},
		{"inside header", 7},
		{"inside MLP parameters", 64},
		{"early table data", len(whole) / 4},
		{"mid table data", len(whole) / 2},
		{"late table data", 3 * len(whole) / 4},
		{"missing trailer", len(whole) - 12},
		{"one byte short", len(whole) - 1},
	}
	for _, tc := range cuts {
		dst := buildModel(t, 22)
		_, err := LoadTraining(bytes.NewReader(whole[:tc.n]), dst, nil)
		if err == nil {
			t.Errorf("%s (%d/%d bytes): truncated checkpoint accepted", tc.name, tc.n, len(whole))
			continue
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s (%d/%d bytes): err = %v, want ErrCorruptCheckpoint", tc.name, tc.n, len(whole), err)
		}
	}
	// The untruncated file still loads, and the trailer survives.
	dst := buildModel(t, 23)
	st, err := LoadTraining(bytes.NewReader(whole), dst, nil)
	if err != nil {
		t.Fatalf("full load after truncation sweep: %v", err)
	}
	if st.NextIter != 17 {
		t.Fatalf("NextIter = %d, want 17", st.NextIter)
	}

	// The other direction of the same corruption class: trailing bytes
	// after the body (a concatenated or torn-rename file) must be rejected
	// with the same typed sentinel, not loaded "successfully".
	for _, extra := range [][]byte{{0x00}, {0xFF, 0xFE}, append([]byte(nil), whole[:32]...)} {
		dst := buildModel(t, 24)
		glued := append(append([]byte(nil), whole...), extra...)
		_, err := LoadTraining(bytes.NewReader(glued), dst, nil)
		if err == nil {
			t.Errorf("%d trailing bytes accepted", len(extra))
			continue
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%d trailing bytes: err = %v, want ErrCorruptCheckpoint", len(extra), err)
		}
	}
}

// TestLoadModelRejectsTrailingBytes covers the model-only envelope: a valid
// SaveModel body followed by garbage must fail with ErrCorruptCheckpoint.
func TestLoadModelRejectsTrailingBytes(t *testing.T) {
	src := buildModel(t, 25)
	var buf bytes.Buffer
	if err := SaveModel(&buf, src); err != nil {
		t.Fatal(err)
	}
	glued := append(append([]byte(nil), buf.Bytes()...), 'x')
	dst := buildModel(t, 26)
	err := LoadModel(bytes.NewReader(glued), dst)
	if err == nil {
		t.Fatal("trailing byte accepted")
	}
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	// The clean file still loads.
	if err := LoadModel(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatalf("clean load: %v", err)
	}
}

// TestWriteFileAtomicDurability covers the crash-consistency contract: the
// temp file never survives, a failed write leaves no debris, and a write
// callback error propagates.
func TestWriteFileAtomicDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	n, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len("payload")) {
		t.Fatalf("reported %d bytes, want %d", n, len("payload"))
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "payload" {
		t.Fatalf("readback: %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after success")
	}

	wantErr := errors.New("simulated write failure")
	if _, err := WriteFileAtomic(filepath.Join(dir, "bad.bin"), func(io.Writer) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("write-callback error lost: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.bin")); !os.IsNotExist(err) {
		t.Fatal("failed write left a destination file")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.bin.tmp")); !os.IsNotExist(err) {
		t.Fatal("failed write left a temp file")
	}
}
