package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/reorder"
	"repro/internal/tt"
)

func coreSpec() data.Spec {
	return data.Spec{
		Name: "core-test", NumDense: 3, TableRows: []int{2000, 80, 5000},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 41,
	}
}

func coreConfig() Config {
	cfg := DefaultConfig(coreSpec())
	cfg.Model = dlrm.Config{NumDense: 3, EmbDim: 8, BottomSizes: []int{12}, TopSizes: []int{12}, LR: 2.0, Seed: 5}
	cfg.Rank = 8
	cfg.TTThreshold = 1000
	cfg.ProfileBatches = 8
	cfg.ProfileBatchSize = 128
	return cfg
}

func TestBuildPlacesTablesOnDevice(t *testing.T) {
	sys, err := Build(coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []Placement{PlaceTTDevice, PlaceDenseDevice, PlaceTTDevice}
	for i, p := range sys.Placements {
		if p != want[i] {
			t.Fatalf("table %d placed %q want %q", i, p, want[i])
		}
	}
	if sys.Pipeline != nil {
		t.Fatal("no host tables, but a pipeline was kept")
	}
	if sys.HostBytes != 0 || sys.DeviceBytes == 0 {
		t.Fatalf("footprints device=%d host=%d", sys.DeviceBytes, sys.HostBytes)
	}
	// Reordering must have produced bijections exactly for the TT tables.
	for i, bij := range sys.Bijections {
		isTT := sys.Placements[i] == PlaceTTDevice
		if isTT && bij == nil {
			t.Fatalf("TT table %d missing bijection", i)
		}
		if !isTT && bij != nil {
			t.Fatalf("dense table %d has a bijection", i)
		}
		if bij != nil {
			if err := bij.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBuildSpillsToHostWhenHBMSmall(t *testing.T) {
	cfg := coreConfig()
	// A device with almost no memory: TT tables fit (tiny) but the dense
	// 80-row table cannot.
	cfg.Device = hw.Device{Name: "tiny", HBMBytes: 20 << 10, ComputeScale: 1}
	cfg.HBMReserve = 0
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Placements[1] != PlaceHost {
		t.Fatalf("small dense table placed %q want host", sys.Placements[1])
	}
	if sys.Pipeline == nil {
		t.Fatal("host placement without pipeline")
	}
	if sys.HostBytes == 0 {
		t.Fatal("host bytes not accounted")
	}
	// The spilled system must still train.
	curve := sys.Train(100, 10, 64)
	if len(curve.Losses) != 10 {
		t.Fatalf("trained %d steps", len(curve.Losses))
	}
}

// TestReorderedTablesStayOnDevice guards the invariant that lets the
// lookahead planner plan raw ids: with reordering on and an HBM budget that
// pushes tables to the host, every table with a bijection is TT-compressed
// on the device, so no host table trains on remapped ids.
func TestReorderedTablesStayOnDevice(t *testing.T) {
	// Threshold 1000 compresses the 2000- and 5000-row tables, 3000 only the
	// latter; the 20 KiB budget holds the TT tables and no dense one.
	for _, threshold := range []int{1000, 3000} {
		cfg := coreConfig()
		cfg.Device = hw.Device{Name: "tiny", HBMBytes: 20 << 10, ComputeScale: 1}
		cfg.HBMReserve = 0
		cfg.TTThreshold = threshold
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosted, reordered := 0, 0
		for i, bij := range sys.Bijections {
			if sys.Placements[i] == PlaceHost {
				hosted++
			}
			if bij == nil {
				continue
			}
			reordered++
			if sys.Placements[i] != PlaceTTDevice {
				t.Errorf("threshold %d: table %d has a bijection but is placed %q", threshold, i, sys.Placements[i])
			}
		}
		if hosted == 0 || reordered == 0 {
			t.Fatalf("threshold %d: %d host tables, %d reordered: the invariant is not exercised", threshold, hosted, reordered)
		}
	}
}

// TestTrainContextCancelledWithNoSteps: a cancelled context is reported even
// when there is nothing to train, on the device-resident loop and through the
// pipeline — a caller that loops until its steps are done would otherwise spin
// on zero progress and no error.
func TestTrainContextCancelledWithNoSteps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spilled := coreConfig()
	spilled.Device = hw.Device{Name: "tiny", HBMBytes: 20 << 10, ComputeScale: 1}
	spilled.HBMReserve = 0
	for _, cfg := range []Config{coreConfig(), spilled} {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, steps := range []int{0, 3} {
			res, err := sys.TrainContext(ctx, 7, steps, 16)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pipelined=%v steps=%d: err = %v, want context.Canceled", sys.Pipeline != nil, steps, err)
			}
			if res == nil || res.Completed != 0 || res.NextIter != 7 || !res.Resumable {
				t.Fatalf("pipelined=%v steps=%d: result %+v, want no progress, resumable at 7", sys.Pipeline != nil, steps, res)
			}
		}
	}
}

// TestSaveModelRefusesWhatTheFileCannotCarry: a weights-only model file has
// no place for host tables or index bijections; each refusal names the way
// out, and nothing is written.
func TestSaveModelRefusesWhatTheFileCannotCarry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	refused := func(name string, cfg Config, wayOut string) {
		t.Helper()
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = sys.SaveModel(path)
		if err == nil || !strings.Contains(err.Error(), wayOut) {
			t.Fatalf("%s: SaveModel = %v, want a refusal naming %s", name, err, wayOut)
		}
		if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
			t.Fatalf("%s: refused SaveModel left a file behind (%v)", name, statErr)
		}
	}
	refused("reordered", coreConfig(), "-no-reorder")

	pipelined := coreConfig()
	pipelined.Reorder = false
	pipelined.Device = hw.Device{Name: "tiny", HBMBytes: 20 << 10, ComputeScale: 1}
	pipelined.HBMReserve = 0
	refused("pipelined", pipelined, "-checkpoint")

	plain := coreConfig()
	plain.Reorder = false
	sys, err := Build(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveModel(path); err != nil {
		t.Fatalf("device-resident system on raw ids: %v", err)
	}
}

func TestBuildRejectsImpossibleBudget(t *testing.T) {
	cfg := coreConfig()
	cfg.Device = hw.Device{Name: "none", HBMBytes: 16, ComputeScale: 1}
	cfg.HBMReserve = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("TT tables exceeding HBM accepted")
	}
}

func TestSystemTrainsAndLearns(t *testing.T) {
	sys, err := Build(coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	curve := sys.Train(100, 2200, 128)
	if curve.Final(50) >= curve.Smoothed(50)[49] {
		t.Fatalf("loss did not decrease: %v -> %v", curve.Smoothed(50)[49], curve.Final(50))
	}
	// Evaluate on batches from the trained region: held-out batches drift
	// to unseen hot groups on this small budget, which measures coverage,
	// not learning.
	acc, auc := sys.Evaluate(150, 10, 128)
	if auc < 0.57 {
		t.Fatalf("EL-Rec failed to learn: acc=%.3f auc=%.3f", acc, auc)
	}
}

func TestNoCompressionBaseline(t *testing.T) {
	cfg := coreConfig()
	cfg.TTThreshold = -1 // DLRM baseline: nothing compressed
	cfg.Reorder = false
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sys.Placements {
		if p != PlaceDenseDevice {
			t.Fatalf("table %d placed %q want dense-device", i, p)
		}
	}
	if sys.CompressionRatio() != 1 {
		t.Fatalf("uncompressed ratio %v want 1", sys.CompressionRatio())
	}
}

func TestCompressionRatioAboveOneWithTT(t *testing.T) {
	sys, err := Build(coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r := sys.CompressionRatio(); r <= 1 {
		t.Fatalf("compression ratio %v not > 1", r)
	}
}

func TestRemappedSourcePermutesSparseOnly(t *testing.T) {
	sys, err := Build(coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := sys.Dataset.Batch(5, 32)
	remapped := sys.Source().Batch(5, 32)
	if raw.Dense.MaxAbsDiff(remapped.Dense) != 0 {
		t.Fatal("remap altered dense features")
	}
	for s := range raw.Labels {
		if raw.Labels[s] != remapped.Labels[s] {
			t.Fatal("remap altered labels")
		}
	}
	// TT tables (0 and 2) are remapped through their bijections; the dense
	// table (1) is untouched.
	for s, idx := range raw.Sparse[1] {
		if remapped.Sparse[1][s] != idx {
			t.Fatal("identity table was remapped")
		}
	}
	diff := false
	for s, idx := range raw.Sparse[0] {
		want := sys.Bijections[0].At(idx)
		if remapped.Sparse[0][s] != want {
			t.Fatalf("remap wrong at sample %d", s)
		}
		if want != idx {
			diff = true
		}
	}
	if !diff {
		t.Fatal("bijection is identity; remap test has no power")
	}
}

// TestProfileFromIndexStreamsMatchesFullBatches: Build profiles reordering
// from the compressed tables' index streams alone (Dataset.IndicesInto).
// Its bijections must be the ones the full profiled batches give, on the
// single-valued and the multi-hot schema.
func TestProfileFromIndexStreamsMatchesFullBatches(t *testing.T) {
	for _, multiHot := range []int{0, 3} {
		cfg := coreConfig()
		cfg.Data.MultiHot = multiHot
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches := make([]*data.Batch, cfg.ProfileBatches)
		for it := range batches {
			batches[it] = sys.Dataset.Batch(it, cfg.ProfileBatchSize)
		}
		compared := 0
		for i, got := range sys.Bijections {
			if got == nil {
				continue
			}
			counts := make([]int64, cfg.Data.TableRows[i])
			cols := make([][]int, len(batches))
			for bi, b := range batches {
				cols[bi] = b.Sparse[i]
				for _, idx := range b.Sparse[i] {
					counts[idx]++
				}
			}
			want, err := reorder.Build(counts, cols, cfg.ReorderCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBijection(got, want) {
				t.Fatalf("multi-hot %d, table %d: bijection differs from the full-batch profile's", multiHot, i)
			}
			compared++
		}
		if compared != 2 {
			t.Fatalf("multi-hot %d: compared %d bijections, want the 2 TT tables'", multiHot, compared)
		}
	}
}

// sameBijection reports whether a and b map every row to the same new id.
func sameBijection(a, b *reorder.Bijection) bool {
	if a.Len() != b.Len() {
		return false
	}
	for raw := range a.Len() {
		if a.At(raw) != b.At(raw) {
			return false
		}
	}
	return true
}

func TestOptionsPropagateToTables(t *testing.T) {
	cfg := coreConfig()
	cfg.Opts = tt.NaiveOptions()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := sys.Model().Tables[0].(*tt.Table)
	if !ok {
		t.Fatal("table 0 is not a TT table")
	}
	if tbl.Opts != tt.NaiveOptions() {
		t.Fatalf("options not propagated: %+v", tbl.Opts)
	}
}

func TestEvaluateWithHostTables(t *testing.T) {
	// Evaluation must work when tables live behind the parameter server
	// (the inference path reads host memory synchronously).
	cfg := coreConfig()
	cfg.Device = hw.Device{Name: "tiny", HBMBytes: 20 << 10, ComputeScale: 1}
	cfg.HBMReserve = 0
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Pipeline == nil {
		t.Fatal("expected host placement")
	}
	sys.Train(0, 5, 32)
	acc, auc := sys.Evaluate(10, 2, 32)
	if acc < 0 || acc > 1 || auc < 0 || auc > 1 {
		t.Fatalf("evaluation out of range: %v %v", acc, auc)
	}
}

func TestAdagradSystem(t *testing.T) {
	cfg := coreConfig()
	cfg.Adagrad = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ttTbl, ok := sys.Model().Tables[0].(*tt.Table)
	if !ok {
		t.Fatal("table 0 not TT")
	}
	if !ttTbl.AdagradEnabled() {
		t.Fatal("TT table missing Adagrad state")
	}
	curve := sys.Train(0, 60, 64)
	early := curve.Smoothed(10)[9]
	if late := curve.Final(10); late >= early {
		t.Fatalf("Adagrad system did not reduce loss: %v -> %v", early, late)
	}
}
