package tt

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options selects which of the paper's optimizations a Table uses. The zero
// value is the plain TT-Rec behaviour; EffOptions() enables everything
// (the Eff-TT table).
type Options struct {
	// DedupIndices computes each unique row of a batch once and scatters it,
	// instead of recomputing per occurrence (part of two-level reuse, §III-A).
	DedupIndices bool
	// ReusePrefix maintains the reuse buffer of first-two-core products
	// keyed by index/m₃ and evaluates it with batched GEMM (Algorithm 1).
	ReusePrefix bool
	// InAdvanceAgg aggregates gradients before multiplying with TT cores in
	// the backward pass (§III-B), at both reuse levels of the forward pass:
	// one gradient row per unique index, then one dP₁₂ per unique (i₁,i₂)
	// prefix, so the two rank-sized contractions (dG₁, dG₂) run once per
	// prefix. The paper aggregates at the first level only; the second is
	// the same argument applied to Algorithm 1's prefix. Every core slice
	// has one writer per batch on this path, so its result does not depend
	// on the worker count. Off, every index occurrence runs the whole chain
	// (the TT-Rec baseline).
	InAdvanceAgg bool
	// FusedUpdate applies the update inside the backward pass, one apply per
	// touched core slice, instead of materializing full core gradients and
	// updating in a second sweep (§III-B). With InAdvanceAgg every slice is
	// read before it is written, so fused and unfused are the same
	// mini-batch step up to float rounding and differ only in the sink.
	FusedUpdate bool
}

// EffOptions returns the full Eff-TT configuration.
func EffOptions() Options {
	return Options{DedupIndices: true, ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: true}
}

// NaiveOptions returns the TT-Rec baseline configuration.
func NaiveOptions() Options { return Options{} }

// lockStripes is the number of striped mutexes per core protecting slice
// updates of the per-occurrence baseline backward when it runs in parallel.
// The two-level backward takes none: each slice has one writer.
const lockStripes = 128

// Table is a TT-compressed embedding table with sum-pooling lookup
// semantics identical to embedding.Bag. It is safe for concurrent lookups;
// backward passes must not run concurrently with each other on the same
// table.
type Table struct {
	Shape Shape
	Opts  Options
	// Cores[k] stores one slice per row: Cores[k] has RowFactors[k] rows of
	// sliceSizes()[k] floats each.
	Cores [Dims]*tensor.Matrix

	locks [Dims][lockStripes]sync.Mutex

	// grads holds core-gradient accumulators for the unfused update path,
	// allocated lazily.
	grads [Dims]*tensor.Matrix

	// adagrad holds per-core squared-gradient accumulators when the
	// adaptive update rule is enabled (see EnableAdagrad).
	adagrad [Dims]*tensor.Matrix

	// lastCache retains the most recent Lookup's forward cache for Update.
	lastCache *forwardCache

	// arena is the table-owned forward cache the Lookup/Update path reuses
	// across batches (see forwardCache), allocated on first Lookup.
	arena *forwardCache

	// memo is non-nil exactly on the read-only replicas CloneForServing
	// returns: it keeps prefix products across batches (prefixmemo.go) and
	// marks the table as one backward must refuse. Trainable tables run
	// Algorithm 1's reuse buffer per batch on their arena.
	memo *prefixMemo

	// met holds the forward-path instruments (see AttachMetrics). The zero
	// value's nil counters make every record a no-op, so an unattached
	// table pays only nil checks on the hot path.
	met tableMetrics
}

// tableMetrics instruments the two-level reuse of the forward pass: how
// many index occurrences collapse into work items (deduplication) and how
// many work items share a reuse-buffer prefix (Algorithm 1), plus the
// batched-GEMM launches that evaluate the buffer — and the same two levels
// of the backward's aggregation. All counters aggregate
// across every table attached to the same registry, so the exported ratios
// describe the whole embedding layer.
type tableMetrics struct {
	attached bool

	indices        *obs.Counter // index occurrences entering forward
	workItems      *obs.Counter // rows actually computed (unique under dedup)
	prefixWork     *obs.Counter // work items entering the prefix stage
	uniquePrefixes *obs.Counter // distinct prefixes materialized per batch
	gemmLaunches   *obs.Counter // batched-GEMM kernel launches, one GEMM per unique prefix inside

	backwardRows  *obs.Counter // gradient occurrences entering backward
	backwardWork  *obs.Counter // gradient rows after in-advance aggregation
	backwardPairs *obs.Counter // dG₁/dG₂ contraction pairs run: one per unique prefix (per row on the baseline)

	cacheHits   *obs.Counter // unique prefixes a serving clone's memo already held
	cacheMisses *obs.Counter // unique prefixes it computed (absent or recycled); both stay 0 on trainable tables

	dedupRatio    *obs.Gauge // cumulative indices / work items (≥ 1)
	prefixHitRate *obs.Gauge // cumulative share of prefix work served by the buffer
	backwardAgg   *obs.Gauge // cumulative backward rows / aggregated rows (≥ 1)
	backwardPfx   *obs.Gauge // cumulative aggregated rows / dG₁,dG₂ contraction pairs (≥ 1)
}

// AttachMetrics wires the table's forward-path counters to r under tt_*
// names. Multiple tables attached to one registry share the instruments
// (the registry is get-or-create by name), so the counts and ratios are
// embedding-layer-wide. A nil registry detaches nothing and costs nothing:
// the returned nil instruments keep every record path a no-op.
func (t *Table) AttachMetrics(r *obs.Registry) {
	t.met = tableMetrics{
		attached:       r != nil,
		indices:        r.Counter("tt_indices"),
		workItems:      r.Counter("tt_work_items"),
		prefixWork:     r.Counter("tt_prefix_work"),
		uniquePrefixes: r.Counter("tt_unique_prefixes"),
		gemmLaunches:   r.Counter("tt_batched_gemm_launches"),
		backwardRows:   r.Counter("tt_backward_rows"),
		backwardWork:   r.Counter("tt_backward_work"),
		backwardPairs:  r.Counter("tt_backward_prefix_work"),
		cacheHits:      r.Counter("tt_prefix_cache_hits"),
		cacheMisses:    r.Counter("tt_prefix_cache_misses"),
		dedupRatio:     r.Gauge("tt_dedup_ratio"),
		prefixHitRate:  r.Gauge("tt_prefix_hit_rate"),
		backwardAgg:    r.Gauge("tt_backward_agg_ratio"),
		backwardPfx:    r.Gauge("tt_backward_prefix_agg_ratio"),
	}
}

// recordForward accumulates one forward call's dedup split and refreshes
// the cumulative dedup-ratio gauge.
func (m *tableMetrics) recordForward(indices, workItems int) {
	if !m.attached {
		return
	}
	m.indices.Add(int64(indices))
	m.workItems.Add(int64(workItems))
	setRatio(m.dedupRatio, m.indices, m.workItems, quotient)
}

// setRatio sets g to ratio(num, den) of the counters' current values (den >
// 0) and reads them again after the store: if either moved, a concurrent
// recorder may have stored an older quotient after this one, so it stores
// again. The last store to land therefore read the final counts: once every
// recorder has returned, g is its counters' ratio, whatever the interleaving
// of tables recording at once. The ratios are quotient and hitRate, 1 − n/d.
func setRatio(g *obs.Gauge, num, den *obs.Counter, ratio func(n, d float64) float64) {
	n, d := num.Value(), den.Value()
	for d > 0 {
		g.Set(ratio(float64(n), float64(d)))
		n2, d2 := num.Value(), den.Value()
		if n2 == n && d2 == d {
			return
		}
		n, d = n2, d2
	}
}

func quotient(n, d float64) float64 { return n / d }
func hitRate(n, d float64) float64  { return 1 - n/d }

// recordPrefix accumulates one reuse-buffer fill and refreshes the
// cumulative prefix-hit-rate gauge: the share of prefix-stage work items
// whose first-two-core product was already in the buffer.
func (m *tableMetrics) recordPrefix(workItems, uniquePrefixes int) {
	if !m.attached {
		return
	}
	m.prefixWork.Add(int64(workItems))
	m.uniquePrefixes.Add(int64(uniquePrefixes))
	if uniquePrefixes > 0 {
		// No launch when a serving clone's memo held every prefix.
		m.gemmLaunches.Inc()
	}
	setRatio(m.prefixHitRate, m.uniquePrefixes, m.prefixWork, hitRate)
}

// recordPrefixCache accumulates one batch's outcome on a serving clone's
// prefix memo: hits are unique prefixes whose product it already held,
// misses were computed (absent or recycled).
func (m *tableMetrics) recordPrefixCache(hits, misses int) {
	if !m.attached {
		return
	}
	m.cacheHits.Add(int64(hits))
	m.cacheMisses.Add(int64(misses))
}

// recordBackward accumulates one backward call's two aggregation levels and
// refreshes their ratio gauges (§III-B): occurrences per aggregated gradient
// row, and aggregated rows per pair of rank-sized contractions (dG₁, dG₂)
// actually run — prefixWork is the batch's unique prefixes with
// InAdvanceAgg and workRows on the per-occurrence baseline.
func (m *tableMetrics) recordBackward(rows, workRows, prefixWork int) {
	if !m.attached {
		return
	}
	m.backwardRows.Add(int64(rows))
	m.backwardWork.Add(int64(workRows))
	m.backwardPairs.Add(int64(prefixWork))
	setRatio(m.backwardAgg, m.backwardRows, m.backwardWork, quotient)
	setRatio(m.backwardPfx, m.backwardWork, m.backwardPairs, quotient)
}

// NewTable allocates a table for the given shape with Eff-TT options and
// random cores scaled so materialized rows have standard deviation near
// targetStd (pass 0 for the default 0.05, roughly matching the DLRM
// reference initialization at the bench scales used here).
func NewTable(shape Shape, rng *tensor.RNG, targetStd float64) *Table {
	if err := shape.validate(); err != nil {
		panic(err)
	}
	if targetStd <= 0 {
		targetStd = 0.05
	}
	t := &Table{Shape: shape, Opts: EffOptions()}
	sz := shape.sliceSizes()
	// Var(row element) ≈ R₁·R₂·σ₁²σ₂²σ₃²; pick equal per-core σ so the
	// product of the three cores lands on targetStd.
	sigma := math.Pow(targetStd*targetStd/float64(shape.R1*shape.R2), 1.0/6.0)
	for k := 0; k < Dims; k++ {
		t.Cores[k] = tensor.New(shape.RowFactors[k], sz[k])
		rng.FillNormal(t.Cores[k].Data, float32(sigma))
	}
	return t
}

// NumRows returns the logical row count of the table.
func (t *Table) NumRows() int { return t.Shape.Rows }

// Dim returns the embedding dimension.
func (t *Table) Dim() int { return t.Shape.Dim }

// FootprintBytes returns the TT parameter storage in bytes.
func (t *Table) FootprintBytes() int64 { return t.Shape.FootprintBytes() }

// Slice1 returns G₁[i₁] as a flat n₁×R₁ buffer.
func (t *Table) Slice1(i1 int) []float32 { return t.Cores[0].Row(i1) }

// Slice2 returns G₂[i₂] as a flat R₁×(n₂R₂) buffer.
func (t *Table) Slice2(i2 int) []float32 { return t.Cores[1].Row(i2) }

// Slice3 returns G₃[i₃] as a flat R₂×n₃ buffer.
func (t *Table) Slice3(i3 int) []float32 { return t.Cores[2].Row(i3) }

// computePrefix writes G₁[i₁]·G₂[i₂] into dst (n₁ × n₂R₂ row-major,
// prefixSize() floats).
func (t *Table) computePrefix(i1, i2 int, dst []float32) {
	n := t.Shape.ColFactors
	tensor.GemmInto(n[0], t.Shape.R1, n[1]*t.Shape.R2, t.Slice1(i1), t.Slice2(i2), dst)
}

// rowFromPrefix writes the embedding row into dst (Dim floats) given the
// prefix product p12 (n₁n₂ × R₂ when reshaped) and the third TT index.
func (t *Table) rowFromPrefix(p12 []float32, i3 int, dst []float32) {
	n := t.Shape.ColFactors
	tensor.GemmInto(n[0]*n[1], t.Shape.R2, n[2], p12, t.Slice3(i3), dst)
}

// LookupRow materializes a single embedding row into dst (len Dim): the
// single-index reference the tests compare the batched paths against.
func (t *Table) LookupRow(i int, dst []float32) {
	if i < 0 || i >= t.Shape.Rows {
		panic(fmt.Sprintf("tt: LookupRow index %d out of [0,%d)", i, t.Shape.Rows))
	}
	if len(dst) != t.Shape.Dim {
		panic(fmt.Sprintf("tt: LookupRow dst len %d want %d", len(dst), t.Shape.Dim))
	}
	i1, i2, i3 := t.Shape.factorIndex(i)
	p12 := make([]float32, t.Shape.prefixSize())
	t.computePrefix(i1, i2, p12)
	t.rowFromPrefix(p12, i3, dst)
}

// Materialize reconstructs the full logical table (Rows × Dim); for tests
// only — it defeats the compression.
func (t *Table) Materialize() *tensor.Matrix {
	out := tensor.New(t.Shape.Rows, t.Shape.Dim)
	p12 := make([]float32, t.Shape.prefixSize())
	lastPrefix := -1
	for i := 0; i < t.Shape.Rows; i++ {
		i1, i2, i3 := t.Shape.factorIndex(i)
		if pfx := t.Shape.prefix(i); pfx != lastPrefix {
			t.computePrefix(i1, i2, p12)
			lastPrefix = pfx
		}
		t.rowFromPrefix(p12, i3, out.Row(i))
	}
	return out
}

// lockFor returns the striped mutex guarding slice row of core k.
func (t *Table) lockFor(k, row int) *sync.Mutex {
	return &t.locks[k][row&(lockStripes-1)]
}

// gradBuffers returns (allocating on first use) the unfused core-gradient
// accumulators, zeroed.
func (t *Table) gradBuffers() [Dims]*tensor.Matrix {
	for k := 0; k < Dims; k++ {
		if t.grads[k] == nil {
			t.grads[k] = tensor.New(t.Cores[k].Rows, t.Cores[k].Cols)
		} else {
			t.grads[k].Zero()
		}
	}
	return t.grads
}
