package dlrm

import (
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/tt"
)

func testSpec() data.Spec {
	return data.Spec{
		Name: "dlrm-test", NumDense: 4, TableRows: []int{300, 50, 800},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 11,
	}
}

func testConfig() Config {
	return Config{
		NumDense:    4,
		EmbDim:      8,
		BottomSizes: []int{16},
		TopSizes:    []int{16},
		LR:          2.0,
		Seed:        3,
	}
}

func denseTables(t *testing.T, spec data.Spec) []Table {
	t.Helper()
	tables, n, err := BuildTables(spec.TableRows, TableSpec{Dim: 8, Rank: 4, TTThreshold: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("dense build compressed %d tables", n)
	}
	return tables
}

func ttTables(t *testing.T, spec data.Spec) []Table {
	t.Helper()
	tables, n, err := BuildTables(spec.TableRows, TableSpec{Dim: 8, Rank: 8, TTThreshold: 0, Opts: tt.EffOptions(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(spec.TableRows) {
		t.Fatalf("tt build compressed only %d tables", n)
	}
	return tables
}

func TestNewModelValidation(t *testing.T) {
	spec := testSpec()
	tables := denseTables(t, spec)
	cfg := testConfig()
	if _, err := NewModel(cfg, nil); err == nil {
		t.Fatal("no tables accepted")
	}
	bad := cfg
	bad.EmbDim = 16 // tables are dim 8
	if _, err := NewModel(bad, tables); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	bad = cfg
	bad.LR = 0
	if _, err := NewModel(bad, tables); err == nil {
		t.Fatal("zero LR accepted")
	}
	if _, err := NewModel(cfg, tables); err != nil {
		t.Fatal(err)
	}
}

func TestForwardShapes(t *testing.T) {
	spec := testSpec()
	d, _ := data.New(spec)
	m, err := NewModel(testConfig(), denseTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	b := d.Batch(0, 32)
	logits := m.Forward(b)
	if logits.Rows != 32 || logits.Cols != 1 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
	probs := m.Predict(b)
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestForwardBatchMismatchPanics(t *testing.T) {
	spec := testSpec()
	d, _ := data.New(spec)
	// Model with one fewer table than the batch provides.
	tables := denseTables(t, spec)[:2]
	m, err := NewModel(testConfig(), tables)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("table/batch mismatch did not panic")
		}
	}()
	m.Forward(d.Batch(0, 8))
}

// trainAndEval trains a model for steps batches and returns held-out
// accuracy and AUC.
func trainAndEval(t *testing.T, m *Model, d *data.Dataset, steps, batchSize int) (acc, auc float64) {
	t.Helper()
	for it := 0; it < steps; it++ {
		m.TrainStep(d.Batch(it, batchSize))
	}
	var probs, labels []float32
	for it := steps; it < steps+10; it++ {
		b := d.Batch(it, batchSize)
		probs = append(probs, m.Predict(b)...)
		labels = append(labels, b.Labels...)
	}
	return metrics.Accuracy(probs, labels, 0.5), metrics.AUC(probs, labels)
}

func TestTrainingLearnsSignalDenseTables(t *testing.T) {
	if testing.Short() {
		t.Skip("long training test skipped in -short")
	}
	spec := testSpec()
	d, _ := data.New(spec)
	m, err := NewModel(testConfig(), denseTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	acc, auc := trainAndEval(t, m, d, 2000, 128)
	if auc < 0.65 {
		t.Fatalf("dense DLRM failed to learn: acc=%.3f auc=%.3f", acc, auc)
	}
}

func TestTrainingLearnsSignalTTTables(t *testing.T) {
	if testing.Short() {
		t.Skip("long training test skipped in -short")
	}
	spec := testSpec()
	d, _ := data.New(spec)
	m, err := NewModel(testConfig(), ttTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	acc, auc := trainAndEval(t, m, d, 3000, 128)
	if auc < 0.65 {
		t.Fatalf("TT DLRM failed to learn: acc=%.3f auc=%.3f", acc, auc)
	}
}

// TestAccuracyParity is Table IV in miniature: the Eff-TT model must match
// the uncompressed model's held-out accuracy within a small margin.
func TestAccuracyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("long training test skipped in -short")
	}
	spec := testSpec()
	d, _ := data.New(spec)
	dense, err := NewModel(testConfig(), denseTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	ttm, err := NewModel(testConfig(), ttTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	accD, aucD := trainAndEval(t, dense, d, 4000, 128)
	accT, aucT := trainAndEval(t, ttm, d, 4000, 128)
	t.Logf("dense acc=%.4f auc=%.4f | tt acc=%.4f auc=%.4f", accD, aucD, accT, aucT)
	if accT < accD-0.05 {
		t.Fatalf("TT accuracy %.4f more than 5pp below dense %.4f", accT, accD)
	}
	if aucT < aucD-0.07 {
		t.Fatalf("TT AUC %.4f far below dense %.4f", aucT, aucD)
	}
}

func TestLossDecreases(t *testing.T) {
	spec := testSpec()
	d, _ := data.New(spec)
	m, err := NewModel(testConfig(), ttTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	const steps = 50
	for it := 0; it < steps; it++ {
		loss := m.TrainStep(d.Batch(it, 128))
		if it < 5 {
			first += loss
		}
		if it >= steps-5 {
			last += loss
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first5=%v last5=%v", first/5, last/5)
	}
}

func TestBuildTablesThreshold(t *testing.T) {
	rows := []int{100, 5000, 100000}
	tables, n, err := BuildTables(rows, TableSpec{Dim: 8, Rank: 4, TTThreshold: 5000, Opts: tt.EffOptions(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("compressed %d tables want 2", n)
	}
	if tables[0].FootprintBytes() != 100*8*4 {
		t.Fatal("small table should be dense")
	}
	if tables[2].FootprintBytes() >= 100000*8*4/10 {
		t.Fatal("large table should be TT compressed")
	}
	if _, _, err := BuildTables([]int{0}, TableSpec{Dim: 8, Rank: 2}); err == nil {
		t.Fatal("zero-row table accepted")
	}
	if _, _, err := BuildTables(rows, TableSpec{Dim: 0}); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestFootprintAccounting(t *testing.T) {
	spec := testSpec()
	tables := denseTables(t, spec)
	m, err := NewModel(testConfig(), tables)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range spec.TableRows {
		want += int64(r) * 8 * 4
	}
	if got := m.EmbeddingBytes(); got != want {
		t.Fatalf("EmbeddingBytes = %d want %d", got, want)
	}
	if m.MLPBytes() <= 0 {
		t.Fatal("MLPBytes not positive")
	}
}

func TestTrainStepSplitsTime(t *testing.T) {
	spec := testSpec()
	d, _ := data.New(spec)
	m, err := NewModel(testConfig(), ttTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 3; it++ {
		m.TrainStep(d.Batch(it, 64))
	}
	tm := m.Timing()
	if tm.Embed <= 0 || tm.Dense <= 0 {
		t.Fatalf("timing split empty: %+v", tm)
	}
	if tm.Total() != tm.Embed+tm.Dense {
		t.Fatal("Total() inconsistent")
	}
	m.ResetTiming()
	if m.Timing().Total() != 0 {
		t.Fatal("ResetTiming did not clear")
	}

	// On an injected clock that advances 1 ms per reading the split is exact:
	// a step is five intervals, lookups and updates the second and fourth.
	m.SetClock(&tickClock{})
	m.TrainStep(d.Batch(3, 64))
	m.TrainStep(d.Batch(4, 64))
	if tm := m.Timing(); tm.Embed != 4*time.Millisecond || tm.Dense != 6*time.Millisecond {
		t.Fatalf("two steps on the tick clock: %+v, want Embed 4ms Dense 6ms", tm)
	}
}

// tickClock advances one millisecond every time it is read.
type tickClock struct{ now time.Time }

func (c *tickClock) Now() time.Time {
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

func TestModelTrainsOnMultiHotBags(t *testing.T) {
	spec := testSpec()
	spec.MultiHot = 3
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(testConfig(), ttTables(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	const steps = 60
	for it := 0; it < steps; it++ {
		loss := m.TrainStep(d.Batch(it, 64))
		if it < 5 {
			first += loss
		}
		if it >= steps-5 {
			last += loss
		}
	}
	if last >= first {
		t.Fatalf("multi-hot training loss did not decrease: %v -> %v", first/5, last/5)
	}
}
