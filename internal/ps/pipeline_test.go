package ps

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/tensor/workertest"
	"repro/internal/tt"
)

// mustTrain runs Train with a background context and fails the test on any
// error, returning the loss curve.
func mustTrain(t *testing.T, p *Pipeline, d BatchSource, start, steps, batch int) *metrics.LossCurve {
	t.Helper()
	res, err := p.Train(context.Background(), d, start, steps, batch)
	if err != nil {
		t.Fatalf("Train(%d, %d): %v", start, steps, err)
	}
	if res.Completed != steps || res.NextIter != start+steps || !res.Resumable {
		t.Fatalf("Train(%d, %d) result inconsistent: %+v", start, steps, res)
	}
	return res.Curve
}

func psSpec() data.Spec {
	return data.Spec{
		Name: "ps-test", NumDense: 3, TableRows: []int{400, 120},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 21,
	}
}

func psModelCfg() dlrm.Config {
	return dlrm.Config{
		NumDense:    3,
		EmbDim:      8,
		BottomSizes: []int{12},
		TopSizes:    []int{12},
		LR:          0.5,
		Seed:        9,
	}
}

func allHostLocs(spec data.Spec) []TableLoc {
	locs := make([]TableLoc, len(spec.TableRows))
	for i, r := range spec.TableRows {
		locs[i] = TableLoc{HostRows: r}
	}
	return locs
}

func TestNewPipelineValidation(t *testing.T) {
	spec := psSpec()
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if !errors.Is(err, errInvalidConfig) {
			t.Fatalf("%s: error %v does not wrap ErrInvalidConfig", name, err)
		}
	}
	_, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 0}, allHostLocs(spec))
	check("zero queue depth", err)
	_, err = NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1}, nil)
	check("no tables", err)
	_, err = NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1}, []TableLoc{{}})
	check("unplaced table", err)
	shape, _ := tt.NewShape(100, 8, 4)
	dev := tt.NewTable(shape, tensor.NewRNG(1), 0)
	_, err = NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1},
		[]TableLoc{{Device: dev, HostRows: 5}, {HostRows: 10}})
	check("double placement", err)
	_, err = NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1, Checkpoint: CheckpointConfig{Every: 5}}, allHostLocs(spec))
	check("checkpoint interval without path", err)
}

// TestPipelineMatchesSequentialExactly is the central consistency property
// (§V-B): with the embedding cache resolving RAW conflicts, pipelined
// training (queue depth 4) must produce bit-identical parameters to
// sequential training (queue depth 1).
func TestPipelineMatchesSequentialExactly(t *testing.T) {
	spec := psSpec()
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(depth int) *Pipeline {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Seed: 4}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		mustTrain(t, p, d, 0, 60, 64)
		return p
	}
	seq := run(1)
	pipe := run(4)

	// Host tables bit-equal.
	for h := 0; h < seq.numHostTables(); h++ {
		if d := seq.HostBag(h).Weights.MaxAbsDiff(pipe.HostBag(h).Weights); d != 0 {
			t.Fatalf("host table %d differs by %v between sequential and pipelined", h, d)
		}
	}
	// MLP parameters bit-equal.
	sp, pp := seq.Model().MLPParams(), pipe.Model().MLPParams()
	for i := range sp {
		if d := sp[i].Value.MaxAbsDiff(pp[i].Value); d != 0 {
			t.Fatalf("MLP param %d differs by %v", i, d)
		}
	}
	// The pipelined run must actually have exercised the RAW path.
	if hits := pipe.Stats().CacheHits; hits == 0 {
		t.Fatal("pipelined run never hit the embedding cache; test has no power")
	}
}

// TestPipelineZeroAllocRecycledSlabs: a depth-4 pipeline with lookahead
// trains on a fixed set of QueueDepth+3 step slabs. Each is recycled after
// its apply, over calls that start mid-window, so a slab carries the rows,
// gradients and plan of earlier steps into every later gather. Its
// parameters must still equal a sequential, unplanned run's bit for bit —
// a stale row or gradient a recycled slab let through would show — and
// once a warm-up call has grown the slabs, the planner and the cache, a
// further call allocates only per-call bookkeeping — at one worker and at the
// host's width.
func TestPipelineZeroAllocRecycledSlabs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	workertest.Each(t, func(workers int) {
		t.Logf("%d workers", workers)
		checkRecycledSlabs(t)
	})
}

// checkRecycledSlabs runs TestPipelineZeroAllocRecycledSlabs at the current
// worker count.
func checkRecycledSlabs(t *testing.T) {

	spec := psSpec()
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const batch, warmup, steps = 64, 300, 100
	build := func(depth, lookahead int) *Pipeline {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Lookahead: lookahead, Seed: 4}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pipe, seq := build(4, 16), build(1, 0)
	for _, calls := range [][2]int{{0, 37}, {37, warmup - 37}} { // the second call starts mid-window
		mustTrain(t, pipe, d, calls[0], calls[1], batch)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustTrain(t, pipe, d, warmup, steps, batch)
	runtime.ReadMemStats(&after)
	perStep, mallocs := (after.TotalAlloc-before.TotalAlloc)/steps, after.Mallocs-before.Mallocs
	if perStep > 512 {
		t.Errorf("pipelined Train allocated %d bytes per step after warm-up, want at most 512", perStep)
	}
	if mallocs >= steps {
		t.Errorf("pipelined Train made %d allocations in %d steps: a step allocates", mallocs, steps)
	}
	t.Logf("pipelined Train: %d B/step, %d allocations per call, %d GC cycles", perStep, mallocs, after.NumGC-before.NumGC)
	if got, want := len(pipe.spare), 4+3; got != want {
		t.Errorf("%d step slabs in the pool between calls, want %d", got, want)
	}
	mustTrain(t, seq, d, 0, warmup+steps, batch)
	assertParamsEqual(t, seq, pipe, "recycled slabs")
	if st := pipe.Stats(); st.LookaheadPinnedRows == 0 || st.CacheHits == 0 {
		t.Fatalf("no pinned rows (%d) or cache hits (%d): the recycled slabs never carried planned rows", st.LookaheadPinnedRows, st.CacheHits)
	}
}

func TestPipelineCacheActuallyNeeded(t *testing.T) {
	// The same workload, but with the cache sabotaged (lifecycle so large
	// nothing evicts is fine; instead verify staleness exists by counting
	// hits): consecutive batches share hot rows, so pre-fetching without
	// patching would read stale values. We assert overlap exists.
	spec := psSpec()
	d, _ := data.New(spec)
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, p, d, 0, 30, 64)
	st := p.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no overlapping rows between in-flight batches; RAW conflict never arises")
	}
	if st.Steps != 30 {
		t.Fatalf("Steps = %d", st.Steps)
	}
	if st.BytesPrefetched == 0 || st.BytesPushed == 0 {
		t.Fatalf("transfer accounting empty: %+v", st)
	}
}

func TestPipelineWithDeviceTTTable(t *testing.T) {
	// Mixed placement: table 0 as Eff-TT on device, table 1 on host
	// (the Figure 16 configuration).
	spec := psSpec()
	d, _ := data.New(spec)
	shape, err := tt.NewShape(spec.TableRows[0], 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	dev := tt.NewTable(shape, tensor.NewRNG(2), 0.05)
	locs := []TableLoc{{Device: dev}, {HostRows: spec.TableRows[1]}}
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, locs)
	if err != nil {
		t.Fatal(err)
	}
	curve := mustTrain(t, p, d, 0, 120, 64)
	if len(curve.Losses) != 120 {
		t.Fatalf("curve has %d points", len(curve.Losses))
	}
	early := curve.Smoothed(10)[9]
	late := curve.Final(10)
	if late >= early {
		t.Fatalf("mixed-placement pipeline did not reduce loss: %v -> %v", early, late)
	}
	if p.numHostTables() != 1 {
		t.Fatalf("NumHostTables = %d", p.numHostTables())
	}
}

func TestPipelineResumesAcrossTrainCalls(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 2, Seed: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, p, d, 0, 10, 32)
	mustTrain(t, p, d, 10, 10, 32)
	if st := p.Stats(); st.Steps != 20 {
		t.Fatalf("Steps = %d want 20", st.Steps)
	}
}

func TestHostAdapterInferenceOutsideStep(t *testing.T) {
	// Lookup outside a pipeline step serves the host table synchronously
	// (the evaluation path); Update outside a step must still panic.
	spec := psSpec()
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1, Seed: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	out := p.adapters[0].Lookup([]int{1, 1, 3}, []int{0, 2})
	want := p.HostBag(0).Lookup([]int{1, 1, 3}, []int{0, 2})
	if out.MaxAbsDiff(want) != 0 {
		t.Fatal("inference lookup disagrees with host table")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("adapter update outside pipeline step did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, errAdapterMisuse) {
			t.Fatalf("recovered %v; want error wrapping ErrAdapterMisuse", r)
		}
	}()
	p.adapters[0].Update([]int{1}, []int{0}, tensor.New(1, 8), 0.1)
}

// TestHostAdapterLookupZeroAllocSteadyState is TestCacheZeroAllocSteadyState's
// twin for the pooling half of a step: inside a pipeline step, Lookup writes
// the adapter-owned result and allocates nothing, and the pooled rows are the
// host table's own Lookup to the bit.
func TestHostAdapterLookupZeroAllocSteadyState(t *testing.T) {
	spec := psSpec()
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1, Seed: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	indices, offsets := []int{3, 1, 3, 7, 1, 1, 250}, []int{0, 2, 2, 6}
	uniq, inverse := embedding.Unique(indices)
	values := tensor.New(len(uniq), 8)
	if err := p.stores[0].GatherRows(uniq, nil, values); err != nil {
		t.Fatal(err)
	}
	ad := p.adapters[0]
	ad.current = &hostRows{uniq: uniq, inverse: inverse, values: values}
	first := ad.Lookup(indices, offsets)
	if allocs := testing.AllocsPerRun(100, func() { ad.Lookup(indices, offsets) }); allocs != 0 {
		t.Fatalf("in-step Lookup allocated %v times per call, want 0", allocs)
	}
	out := ad.Lookup(indices, offsets)
	if out != first {
		t.Fatal("Lookup did not reuse its result matrix")
	}
	if want := p.HostBag(0).Lookup(indices, offsets); out.MaxAbsDiff(want) != 0 {
		t.Fatal("pooled rows differ from the host table's Lookup")
	}
}

func TestHostAdapterAccessors(t *testing.T) {
	spec := psSpec()
	p, _ := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1, Seed: 4}, allHostLocs(spec))
	ad := p.adapters[0]
	if ad.NumRows() != spec.TableRows[0] || ad.Dim() != 8 {
		t.Fatalf("adapter accessors %d, %d", ad.NumRows(), ad.Dim())
	}
	if ad.FootprintBytes() != int64(spec.TableRows[0])*8*4 {
		t.Fatalf("adapter footprint %d", ad.FootprintBytes())
	}
}

func TestPipelineAllDeviceTables(t *testing.T) {
	// No host tables: the pipeline degrades to a plain training loop with
	// empty gather/apply stages.
	spec := psSpec()
	d, _ := data.New(spec)
	locs := make([]TableLoc, len(spec.TableRows))
	for i, r := range spec.TableRows {
		shape, err := tt.NewShape(r, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = TableLoc{Device: tt.NewTable(shape, tensor.NewRNG(uint64(i)+1), 0.05)}
	}
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, locs)
	if err != nil {
		t.Fatal(err)
	}
	curve := mustTrain(t, p, d, 0, 10, 32)
	if len(curve.Losses) != 10 {
		t.Fatalf("trained %d steps", len(curve.Losses))
	}
	st := p.Stats()
	if st.BytesPrefetched != 0 || st.BytesPushed != 0 {
		t.Fatalf("device-only pipeline moved bytes: %+v", st)
	}
	if p.numHostTables() != 0 {
		t.Fatalf("NumHostTables = %d", p.numHostTables())
	}
}

// TestPipelineLookaheadWithDeviceTTBitExact runs the Figure 16 mixed
// placement with lookahead planning: only the host table is planned, and
// training must stay bit-exact with the non-lookahead schedule (host-side
// pinning changes gather sources, never values).
func TestPipelineLookaheadWithDeviceTTBitExact(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	run := func(lookahead int) (*Pipeline, []float64) {
		shape, err := tt.NewShape(spec.TableRows[0], 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		dev := tt.NewTable(shape, tensor.NewRNG(2), 0.05)
		locs := []TableLoc{{Device: dev}, {HostRows: spec.TableRows[1]}}
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4, Lookahead: lookahead}, locs)
		if err != nil {
			t.Fatal(err)
		}
		return p, mustTrain(t, p, d, 0, 120, 64).Losses
	}
	base, baseLoss := run(0)
	la, laLoss := run(6)
	for i := range baseLoss {
		if baseLoss[i] != laLoss[i] {
			t.Fatalf("loss diverges at step %d: %v vs %v", i, baseLoss[i], laLoss[i])
		}
	}
	if diff := base.HostBag(0).Weights.MaxAbsDiff(la.HostBag(0).Weights); diff != 0 {
		t.Fatalf("host table differs by %v", diff)
	}
	if st := la.Stats(); st.LookaheadWindows == 0 {
		t.Fatalf("lookahead never advanced: %+v", st)
	}
}

// TestNewPipelineLookaheadValidation: a negative window is a config error,
// and so is lookahead over a source the planner cannot read per table.
func TestNewPipelineLookaheadValidation(t *testing.T) {
	spec := psSpec()
	cfg := Config{Model: psModelCfg(), QueueDepth: 1, Lookahead: -1}
	if _, err := NewPipeline(cfg, allHostLocs(spec)); !errors.Is(err, errInvalidConfig) {
		t.Fatalf("config %+v: got %v, want ErrInvalidConfig", cfg, err)
	}
	d, _ := data.New(spec)
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1, Lookahead: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Train(context.Background(), batchOnly{d}, 0, 4, 8)
	if !errors.Is(err, errInvalidConfig) || !strings.Contains(err.Error(), "ps.batchOnly") || res.Completed != 0 {
		t.Fatalf("lookahead over a batch-only source: completed %d, err %v; want ErrInvalidConfig naming ps.batchOnly", res.Completed, err)
	}
}

// batchOnly hides Dataset.BatchIndices: it can feed the pipeline, not the
// lookahead planner.
type batchOnly struct{ d *data.Dataset }

func (b batchOnly) Batch(iter, size int) *data.Batch { return b.d.Batch(iter, size) }

func (b batchOnly) BatchInto(dst *data.Batch, iter, size int) *data.Batch {
	return b.d.BatchInto(dst, iter, size)
}
