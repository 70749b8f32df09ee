// Package checkpoint serializes and restores trained DLRM state — MLP
// parameters, uncompressed embedding tables and TT-compressed tables
// (including Adagrad accumulators) — in a small versioned binary format.
// A downstream user trains with EL-Rec, checkpoints, and serves or resumes
// later; the paper's artifact has the same facility through PyTorch.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
// a checkpoint at all (bad magic, impossible version, or an EOF in the
// middle of a record). Restores distinguish it from architecture-mismatch
// errors: a corrupt file calls for falling back to an older checkpoint,
// a mismatch calls for fixing the model configuration.
var ErrCorruptCheckpoint = errors.New("checkpoint: corrupt or truncated checkpoint")

// corrupt classifies decode errors: an EOF (clean or mid-record) while
// restoring means the file ends before the format says it should — a torn
// or truncated checkpoint — and is wrapped in ErrCorruptCheckpoint.
// Shape/kind mismatches and I/O errors pass through unchanged.
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	return err
}

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
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, magic); err != nil {
		return err
	}
	if err := writeModelBody(bw, m, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadModel restores state saved by SaveModel into a model with the same
// architecture (same parameter shapes, table kinds and table shapes). The
// body must be followed by EOF: trailing bytes mean the file is not one
// clean checkpoint (a concatenation, a torn rename, a partially overwritten
// file) and are rejected with ErrCorruptCheckpoint.
func LoadModel(r io.Reader, m *dlrm.Model) error {
	br := bufio.NewReader(r)
	if err := readHeader(br, magic); err != nil {
		return err
	}
	if err := corrupt(readModelBody(br, m, nil)); err != nil {
		return err
	}
	return expectEOF(br)
}

// SaveTraining writes a training-state checkpoint: the iteration counter
// followed by the full model snapshot (dense parameters, embedding tables,
// optimizer state). resolve maps wrapper tables to their backing store and
// may be nil.
func SaveTraining(w io.Writer, m *dlrm.Model, resolve TableResolver, st TrainState) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, trainMagic); err != nil {
		return err
	}
	if err := writeInt(bw, st.NextIter); err != nil {
		return err
	}
	if err := writeModelBody(bw, m, resolve); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadTraining restores a checkpoint saved by SaveTraining and returns the
// recorded training state. Like LoadModel, it requires EOF after the body:
// trailing bytes are rejected with ErrCorruptCheckpoint.
func LoadTraining(r io.Reader, m *dlrm.Model, resolve TableResolver) (TrainState, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, trainMagic); err != nil {
		return TrainState{}, err
	}
	next, err := readInt(br)
	if err != nil {
		return TrainState{}, corrupt(err)
	}
	if err := readModelBody(br, m, resolve); err != nil {
		return TrainState{}, corrupt(err)
	}
	if err := expectEOF(br); err != nil {
		return TrainState{}, err
	}
	return TrainState{NextIter: next}, nil
}

// expectEOF rejects bytes after the checkpoint body. A format that reads
// exactly what it wrote would otherwise silently accept a concatenated or
// torn-rename file as "the prefix parsed fine" — the same class of
// corruption the truncation checks catch at the other end of the file.
func expectEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing bytes after checkpoint body", ErrCorruptCheckpoint)
	} else if !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// writeModelBody serializes the dense parameters and tables (post-resolve).
func writeModelBody(bw *bufio.Writer, m *dlrm.Model, resolve TableResolver) error {
	params := m.MLPParams()
	if err := writeInt(bw, len(params)); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeMatrix(bw, p.Value); err != nil {
			return fmt.Errorf("checkpoint: param %s: %w", p.Name, err)
		}
	}
	if err := writeInt(bw, len(m.Tables)); err != nil {
		return err
	}
	for i, table := range m.Tables {
		if resolve != nil {
			table = resolve(i, table)
		}
		if err := writeTable(bw, i, table); err != nil {
			return err
		}
	}
	return nil
}

// readModelBody restores what writeModelBody wrote.
func readModelBody(br *bufio.Reader, m *dlrm.Model, resolve TableResolver) error {
	nParams, err := readInt(br)
	if err != nil {
		return err
	}
	params := m.MLPParams()
	if nParams != len(params) {
		return fmt.Errorf("checkpoint: %d dense parameters in file, model has %d", nParams, len(params))
	}
	for _, p := range params {
		if err := readMatrixInto(br, p.Value); err != nil {
			return fmt.Errorf("checkpoint: param %s: %w", p.Name, err)
		}
	}
	nTables, err := readInt(br)
	if err != nil {
		return err
	}
	if nTables != len(m.Tables) {
		return fmt.Errorf("checkpoint: %d tables in file, model has %d", nTables, len(m.Tables))
	}
	for i, table := range m.Tables {
		if resolve != nil {
			table = resolve(i, table)
		}
		if err := readTable(br, i, table); err != nil {
			return err
		}
	}
	return nil
}

// writeTable serializes one (resolved) embedding table. A nil table (the
// resolver's "rows live on a remote shard" answer) writes only a skip
// marker: the shard checkpoints those rows itself, and the restore side
// must resolve the same table to nil.
func writeTable(bw *bufio.Writer, i int, table dlrm.Table) error {
	if table == nil {
		return bw.WriteByte(kindRemote)
	}
	switch tbl := table.(type) {
	case *embedding.Bag:
		if err := bw.WriteByte(kindBag); err != nil {
			return err
		}
		if err := writeMatrix(bw, tbl.Weights); err != nil {
			return fmt.Errorf("checkpoint: table %d: %w", i, err)
		}
	case *embedding.AdagradBag:
		if err := bw.WriteByte(kindAdagradBag); err != nil {
			return err
		}
		if err := writeAdagradBag(bw, tbl); err != nil {
			return fmt.Errorf("checkpoint: table %d: %w", i, err)
		}
	case *tt.Table:
		if err := bw.WriteByte(kindTT); err != nil {
			return err
		}
		if err := writeTT(bw, tbl); err != nil {
			return fmt.Errorf("checkpoint: table %d: %w", i, err)
		}
	default:
		return fmt.Errorf("checkpoint: table %d has unsupported type %T", i, table)
	}
	return nil
}

// readTable restores one (resolved) embedding table.
func readTable(br *bufio.Reader, i int, table dlrm.Table) error {
	kind, err := br.ReadByte()
	if err != nil {
		return err
	}
	if table == nil {
		if kind != kindRemote {
			return fmt.Errorf("checkpoint: table %d kind %d, model expects a remote-table marker", i, kind)
		}
		return nil
	}
	if kind == kindRemote {
		return fmt.Errorf("checkpoint: table %d is a remote-table marker, model expects local state", i)
	}
	switch tbl := table.(type) {
	case *embedding.Bag:
		if kind != kindBag {
			return fmt.Errorf("checkpoint: table %d kind %d, model expects dense bag", i, kind)
		}
		if err := readMatrixInto(br, tbl.Weights); err != nil {
			return fmt.Errorf("checkpoint: table %d: %w", i, err)
		}
	case *embedding.AdagradBag:
		if kind != kindAdagradBag {
			return fmt.Errorf("checkpoint: table %d kind %d, model expects Adagrad bag", i, kind)
		}
		if err := readAdagradBagInto(br, tbl); err != nil {
			return fmt.Errorf("checkpoint: table %d: %w", i, err)
		}
	case *tt.Table:
		if kind != kindTT {
			return fmt.Errorf("checkpoint: table %d kind %d, model expects TT table", i, kind)
		}
		if err := readTTInto(br, tbl); err != nil {
			return fmt.Errorf("checkpoint: table %d: %w", i, err)
		}
	default:
		return fmt.Errorf("checkpoint: table %d has unsupported type %T", i, table)
	}
	return nil
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

// --- TT section ------------------------------------------------------------

func writeTT(w io.Writer, tbl *tt.Table) error {
	s := tbl.Shape
	header := []int{s.Rows, s.Dim, s.RowFactors[0], s.RowFactors[1], s.RowFactors[2],
		s.ColFactors[0], s.ColFactors[1], s.ColFactors[2], s.R1, s.R2}
	for _, v := range header {
		if err := writeInt(w, v); err != nil {
			return err
		}
	}
	for k := 0; k < tt.Dims; k++ {
		if err := writeMatrix(w, tbl.Cores[k]); err != nil {
			return err
		}
	}
	hasAdagrad := uint8(0)
	if tbl.AdagradEnabled() {
		hasAdagrad = 1
	}
	if err := binary.Write(w, binary.LittleEndian, hasAdagrad); err != nil {
		return err
	}
	if hasAdagrad == 1 {
		for k := 0; k < tt.Dims; k++ {
			if err := writeMatrix(w, tbl.AdagradAccum(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

func readTTInto(r io.Reader, tbl *tt.Table) error {
	s := tbl.Shape
	want := []int{s.Rows, s.Dim, s.RowFactors[0], s.RowFactors[1], s.RowFactors[2],
		s.ColFactors[0], s.ColFactors[1], s.ColFactors[2], s.R1, s.R2}
	for i, w := range want {
		got, err := readInt(r)
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("checkpoint: TT shape field %d is %d, model has %d", i, got, w)
		}
	}
	for k := 0; k < tt.Dims; k++ {
		if err := readMatrixInto(r, tbl.Cores[k]); err != nil {
			return err
		}
	}
	var hasAdagrad uint8
	if err := binary.Read(r, binary.LittleEndian, &hasAdagrad); err != nil {
		return err
	}
	if hasAdagrad == 1 {
		tbl.EnableAdagrad()
		for k := 0; k < tt.Dims; k++ {
			if err := readMatrixInto(r, tbl.AdagradAccum(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- primitives -------------------------------------------------------------

func writeHeader(w io.Writer, wantMagic uint32) error {
	if err := binary.Write(w, binary.LittleEndian, wantMagic); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, version)
}

func readHeader(r io.Reader, wantMagic uint32) error {
	var m, v uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return corrupt(fmt.Errorf("checkpoint: reading magic: %w", err))
	}
	if m != wantMagic {
		return fmt.Errorf("%w: bad magic %#x (not a checkpoint file of the expected kind?)", ErrCorruptCheckpoint, m)
	}
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return corrupt(fmt.Errorf("checkpoint: reading version: %w", err))
	}
	if v < 1 || v > version {
		return fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	return nil
}

// writeAdagradBag serializes a dense bag plus its Adagrad accumulator (the
// optimizer state).
func writeAdagradBag(w io.Writer, bag *embedding.AdagradBag) error {
	if err := writeMatrix(w, bag.Weights); err != nil {
		return err
	}
	rows, dim := bag.NumRows(), bag.Dim()
	if err := writeInt(w, rows); err != nil {
		return err
	}
	if err := writeInt(w, dim); err != nil {
		return err
	}
	for r := 0; r < rows; r++ {
		if err := binary.Write(w, binary.LittleEndian, bag.AccumRow(r)); err != nil {
			return err
		}
	}
	return nil
}

// readAdagradBagInto restores a dense bag and its Adagrad accumulator.
func readAdagradBagInto(r io.Reader, bag *embedding.AdagradBag) error {
	if err := readMatrixInto(r, bag.Weights); err != nil {
		return err
	}
	rows, err := readInt(r)
	if err != nil {
		return err
	}
	dim, err := readInt(r)
	if err != nil {
		return err
	}
	if rows != bag.NumRows() || dim != bag.Dim() {
		return fmt.Errorf("checkpoint: Adagrad accumulator %dx%d in file, model has %dx%d", rows, dim, bag.NumRows(), bag.Dim())
	}
	for row := 0; row < rows; row++ {
		if err := binary.Read(r, binary.LittleEndian, bag.AccumRow(row)); err != nil {
			return err
		}
	}
	return nil
}

func writeInt(w io.Writer, v int) error {
	return binary.Write(w, binary.LittleEndian, int64(v))
}

func readInt(r io.Reader) (int, error) {
	var v int64
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return 0, err
	}
	return int(v), nil
}

func writeMatrix(w io.Writer, m *tensor.Matrix) error {
	if err := writeInt(w, m.Rows); err != nil {
		return err
	}
	if err := writeInt(w, m.Cols); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, m.Data)
}

func readMatrixInto(r io.Reader, m *tensor.Matrix) error {
	rows, err := readInt(r)
	if err != nil {
		return err
	}
	cols, err := readInt(r)
	if err != nil {
		return err
	}
	if rows != m.Rows || cols != m.Cols {
		return fmt.Errorf("checkpoint: matrix %dx%d in file, model has %dx%d", rows, cols, m.Rows, m.Cols)
	}
	return binary.Read(r, binary.LittleEndian, m.Data)
}
