// Package checkpoint serializes and restores trained DLRM state — MLP
// parameters, uncompressed embedding tables and TT-compressed tables
// (including Adagrad accumulators) — in a small versioned binary format.
// A downstream user trains with EL-Rec, checkpoints, and serves or resumes
// later; the paper's artifact has the same facility through PyTorch.
package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/codec"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// Format constants. Version 2 adds the Adagrad-wrapped dense bag kind and
// the training-state envelope; version-1 model files remain readable.
// Version 3 adds the remote-table skip marker (a table whose rows live on
// a distps parameter-server shard and are checkpointed there).
const (
	magic      = uint32(0xE17EC001)
	trainMagic = uint32(0xE17EC7A1)
	version    = uint32(3)

	kindBag = uint8(0)
	kindTT  = uint8(1)
	// 2 was the arbitrary-order TT table and stays reserved: no reader case
	// accepts it, so a file that carries it is rejected, never reinterpreted.
	kindAdagradBag = uint8(3)
	kindRemote     = uint8(4)
)

// ErrCorruptCheckpoint reports that a checkpoint file is truncated or not
// a checkpoint at all: bad magic, an impossible version, a field no writer
// produces (a TT Adagrad flag above 1, a negative next iteration), or a
// file that ends inside a record or runs on past its body. Restores distinguish it from architecture-mismatch
// errors: a corrupt file calls for falling back to an older checkpoint,
// a mismatch calls for fixing the model configuration.
var ErrCorruptCheckpoint = errors.New("checkpoint: corrupt or truncated checkpoint")

// TableResolver substitutes a model table with its checkpointable backing
// store before serialization. The pipeline trainer uses it to map its
// parameter-server adapters to the host-memory bags they front; nil keeps
// every table as-is.
type TableResolver func(i int, t dlrm.Table) dlrm.Table

// TrainState is the durable training progress written around a model
// snapshot: the next iteration a resumed run should train.
type TrainState struct {
	NextIter int
}

// SaveModel writes the model's dense parameters and every embedding table
// to w. Tables must be *embedding.Bag, *embedding.AdagradBag or *tt.Table
// (the trainable kinds); baseline executors and pipeline adapters need a
// TableResolver (see SaveTraining) that maps them to their backing store.
func SaveModel(w io.Writer, m *dlrm.Model) error {
	e := codec.NewWriter(w)
	writeHeader(e, magic)
	if err := writeModelBody(e, m, nil); err != nil {
		return err
	}
	return e.Flush()
}

// LoadModel restores state saved by SaveModel into a model with the same
// architecture (same parameter shapes, table kinds and table shapes). The
// body must be followed by EOF: trailing bytes mean the file is not one
// clean checkpoint (a concatenation, a torn rename, a partially overwritten
// file) and are rejected with ErrCorruptCheckpoint.
func LoadModel(r io.Reader, m *dlrm.Model) error {
	d := codec.NewReader(r)
	readHeader(d, magic)
	readModelBody(d, m, nil)
	return verdict(d)
}

// SaveTraining writes a training-state checkpoint: the iteration counter
// followed by the full model snapshot (dense parameters, embedding tables,
// optimizer state). resolve maps wrapper tables to their backing store and
// may be nil.
func SaveTraining(w io.Writer, m *dlrm.Model, resolve TableResolver, st TrainState) error {
	e := codec.NewWriter(w)
	writeHeader(e, trainMagic)
	e.I64(int64(st.NextIter))
	if err := writeModelBody(e, m, resolve); err != nil {
		return err
	}
	return e.Flush()
}

// LoadTraining restores a checkpoint saved by SaveTraining and returns the
// recorded training state. Like LoadModel, it requires EOF after the body:
// trailing bytes are rejected with ErrCorruptCheckpoint, and so is a
// negative next iteration, which no run writes.
func LoadTraining(r io.Reader, m *dlrm.Model, resolve TableResolver) (TrainState, error) {
	d := codec.NewReader(r)
	readHeader(d, trainMagic)
	next := d.I64()
	if next < 0 {
		d.Fail(fmt.Errorf("%w: next iteration %d", ErrCorruptCheckpoint, next))
	}
	readModelBody(d, m, resolve)
	if err := verdict(d); err != nil {
		return TrainState{}, err
	}
	return TrainState{NextIter: int(next)}, nil
}

// verdict is a load's result: the cursor's first error, with a file that
// ends early, runs on past its body or is otherwise malformed reported as
// ErrCorruptCheckpoint. The format's own corruption checks (magic,
// version, flags) already wrap it; an architecture mismatch or an I/O
// error is returned as it is.
func verdict(d *codec.Dec) error {
	err := d.Done()
	if errors.Is(err, codec.ErrMalformed) {
		return fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	return err
}

// writeModelBody serializes the dense parameters and tables (post-resolve).
func writeModelBody(e *codec.Enc, m *dlrm.Model, resolve TableResolver) error {
	params := m.MLPParams()
	e.I64(int64(len(params)))
	for _, p := range params {
		encodeMatrix(e, p.Value)
	}
	e.I64(int64(len(m.Tables)))
	for i, table := range m.Tables {
		if resolve != nil {
			table = resolve(i, table)
		}
		if err := writeTable(e, i, table); err != nil {
			return err
		}
	}
	return nil
}

// readModelBody restores what writeModelBody wrote.
func readModelBody(d *codec.Dec, m *dlrm.Model, resolve TableResolver) {
	params := m.MLPParams()
	if n := d.I64(); n != int64(len(params)) {
		d.Fail(fmt.Errorf("checkpoint: %d dense parameters in file, model has %d", n, len(params)))
	}
	for _, p := range params {
		decodeMatrix(d, p.Value, "param "+p.Name)
	}
	if n := d.I64(); n != int64(len(m.Tables)) {
		d.Fail(fmt.Errorf("checkpoint: %d tables in file, model has %d", n, len(m.Tables)))
	}
	for i, table := range m.Tables {
		if resolve != nil {
			table = resolve(i, table)
		}
		readTable(d, i, table)
	}
}

// writeTable serializes one (resolved) embedding table. A nil table (the
// resolver's "rows live on a remote shard" answer) writes only a skip
// marker: the shard checkpoints those rows itself, and the restore side
// must resolve the same table to nil.
func writeTable(e *codec.Enc, i int, table dlrm.Table) error {
	switch tbl := table.(type) {
	case nil:
		e.U8(kindRemote)
	case *embedding.Bag:
		e.U8(kindBag)
		encodeMatrix(e, tbl.Weights)
	case *embedding.AdagradBag:
		// The dense bag, then its Adagrad accumulator (the optimizer state).
		e.U8(kindAdagradBag)
		encodeMatrix(e, tbl.Weights)
		e.I64(int64(tbl.NumRows()))
		e.I64(int64(tbl.Dim()))
		for r := 0; r < tbl.NumRows(); r++ {
			e.F32s(tbl.AccumRow(r))
		}
	case *tt.Table:
		e.U8(kindTT)
		for _, v := range ttShape(tbl.Shape) {
			e.I64(int64(v))
		}
		for k := 0; k < tt.Dims; k++ {
			encodeMatrix(e, tbl.Cores[k])
		}
		e.Bool(tbl.AdagradEnabled())
		if tbl.AdagradEnabled() {
			for k := 0; k < tt.Dims; k++ {
				encodeMatrix(e, tbl.AdagradAccum(k))
			}
		}
	default:
		return fmt.Errorf("checkpoint: table %d has unsupported type %T", i, table)
	}
	return nil
}

// readTable restores one (resolved) embedding table.
func readTable(d *codec.Dec, i int, table dlrm.Table) {
	kind := d.U8()
	expect := func(want uint8, what string) {
		if kind != want {
			d.Fail(fmt.Errorf("checkpoint: table %d kind %d, model expects %s", i, kind, what))
		}
	}
	what := "table " + strconv.Itoa(i)
	switch tbl := table.(type) {
	case nil:
		expect(kindRemote, "a remote-table marker")
	case *embedding.Bag:
		expect(kindBag, "dense bag")
		decodeMatrix(d, tbl.Weights, what)
	case *embedding.AdagradBag:
		expect(kindAdagradBag, "Adagrad bag")
		decodeMatrix(d, tbl.Weights, what)
		if rows, dim := d.I64(), d.I64(); rows != int64(tbl.NumRows()) || dim != int64(tbl.Dim()) {
			d.Fail(fmt.Errorf("checkpoint: %s: Adagrad accumulator %dx%d in file, model has %dx%d", what, rows, dim, tbl.NumRows(), tbl.Dim()))
		}
		for r := 0; r < tbl.NumRows(); r++ {
			d.F32sInto(tbl.AccumRow(r))
		}
	case *tt.Table:
		expect(kindTT, "TT table")
		readTT(d, tbl, what)
	default:
		d.Fail(fmt.Errorf("checkpoint: table %d has unsupported type %T", i, table))
	}
}

// SaveFile writes the model to path crash-consistently: the bytes land in a
// temp file that is fsynced before an atomic rename, so a crash leaves
// either the old checkpoint or the new one, never a torn file.
func SaveFile(path string, m *dlrm.Model) error {
	_, err := writeFileAtomic(path, func(f *os.File) error { return SaveModel(f, m) })
	return err
}

// LoadFile restores a model from path.
func LoadFile(path string, m *dlrm.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadModel(f, m)
}

// SaveTrainingFile writes a training-state checkpoint to path with the same
// crash-consistency guarantee as SaveFile, returning the checkpoint size in
// bytes so callers can account for checkpoint I/O.
func SaveTrainingFile(path string, m *dlrm.Model, resolve TableResolver, st TrainState) (int64, error) {
	return writeFileAtomic(path, func(f *os.File) error { return SaveTraining(f, m, resolve, st) })
}

// LoadTrainingFile restores a training-state checkpoint from path.
func LoadTrainingFile(path string, m *dlrm.Model, resolve TableResolver) (TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return TrainState{}, err
	}
	defer f.Close()
	return LoadTraining(f, m, resolve)
}

// WriteFileAtomic runs write against path+".tmp", fsyncs the file, renames
// it over path, and fsyncs the parent directory so the rename itself is
// durable — without the directory sync a crash shortly after rename can
// recover to a directory that still names the old file (or none). It
// returns the bytes written; the temp file is removed on any failure.
// Other packages (distps shard checkpoints) reuse it for their own durable
// state files.
func WriteFileAtomic(path string, write func(w io.Writer) error) (int64, error) {
	return writeFileAtomic(path, func(f *os.File) error { return write(f) })
}

// writeFileAtomic is WriteFileAtomic over the concrete *os.File.
func writeFileAtomic(path string, write func(*os.File) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Platforms whose directory handles reject Sync (some network and Windows
// filesystems) degrade to rename-only durability rather than failing the
// checkpoint.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// ttShape lists the shape fields a TT record starts with, in file order.
func ttShape(s tt.Shape) [10]int {
	return [10]int{s.Rows, s.Dim, s.RowFactors[0], s.RowFactors[1], s.RowFactors[2],
		s.ColFactors[0], s.ColFactors[1], s.ColFactors[2], s.R1, s.R2}
}

// readTT restores a TT record: the shape, which must be the model's, the
// three cores, and the Adagrad flag with the accumulators it announces.
func readTT(d *codec.Dec, tbl *tt.Table, what string) {
	for i, want := range ttShape(tbl.Shape) {
		if got := d.I64(); got != int64(want) {
			d.Fail(fmt.Errorf("checkpoint: %s: TT shape field %d is %d, model has %d", what, i, got, want))
		}
	}
	for k := 0; k < tt.Dims; k++ {
		decodeMatrix(d, tbl.Cores[k], what)
	}
	// Like the dense bags' kind byte, the flag refuses an optimizer mismatch:
	// an SGD table resumed into an Adagrad one would restart its
	// accumulators from zero.
	switch flag := d.U8(); {
	case flag > 1:
		d.Fail(fmt.Errorf("%w: TT Adagrad flag %d", ErrCorruptCheckpoint, flag))
	case flag == 0 && tbl.AdagradEnabled():
		d.Fail(fmt.Errorf("checkpoint: %s: TT table without Adagrad state, model expects Adagrad", what))
	case flag == 1:
		tbl.EnableAdagrad()
		for k := 0; k < tt.Dims; k++ {
			decodeMatrix(d, tbl.AdagradAccum(k), what)
		}
	}
}

func writeHeader(e *codec.Enc, m uint32) {
	e.U32(m)
	e.U32(version)
}

func readHeader(d *codec.Dec, want uint32) {
	if m := d.U32(); m != want {
		d.Fail(fmt.Errorf("%w: bad magic %#x (not a checkpoint file of the expected kind?)", ErrCorruptCheckpoint, m))
	}
	if v := d.U32(); v < 1 || v > version {
		d.Fail(fmt.Errorf("%w: unsupported version %d", ErrCorruptCheckpoint, v))
	}
}

// encodeMatrix writes a matrix record: rows and cols as i64, then the data.
func encodeMatrix(e *codec.Enc, m *tensor.Matrix) {
	e.I64(int64(m.Rows))
	e.I64(int64(m.Cols))
	e.F32s(m.Data)
}

// decodeMatrix reads a matrix record into m, whose shape it must have.
func decodeMatrix(d *codec.Dec, m *tensor.Matrix, what string) {
	if rows, cols := d.I64(), d.I64(); rows != int64(m.Rows) || cols != int64(m.Cols) {
		d.Fail(fmt.Errorf("checkpoint: %s: matrix %dx%d in file, model has %dx%d", what, rows, cols, m.Rows, m.Cols))
	}
	d.F32sInto(m.Data)
}
