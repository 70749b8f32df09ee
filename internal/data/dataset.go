package data

import (
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/tensor"
)

// Dataset is a deterministic synthetic dataset: Batch(i, size) always
// produces the same batch for the same spec, independent of generation
// order, so every training system in a comparison sees identical data.
type Dataset struct {
	Spec Spec
	// scatter[t] maps "ordered" positions (where hidden groups are
	// contiguous) to actual row ids, one permutation per table.
	scatter [][]int32
	// groups[t] is the number of hidden groups of table t.
	groups []int
	// intra draws an index's offset inside its group.
	intra smallZipf
}

// New builds a Dataset from a validated spec.
func New(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Dataset{Spec: spec, intra: newSmallZipf(spec.ZipfS, spec.GroupSize)}
	d.scatter = make([][]int32, spec.NumTables())
	d.groups = make([]int, spec.NumTables())
	for t, rows := range spec.TableRows {
		g := rows / spec.GroupSize
		if g < 1 {
			g = 1
		}
		d.groups[t] = g
		perm := make([]int32, rows)
		for i := range perm {
			perm[i] = int32(i)
		}
		r := rand.New(rand.NewSource(int64(mix(spec.Seed, uint64(t), 0x5CA77E2)))) //nolint:gosec // deterministic synthetic data
		r.Shuffle(rows, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		d.scatter[t] = perm
	}
	return d, nil
}

// Batch holds one training batch. With the default single-valued schema
// (Criteo/Avazu) sample s's bag in table t is the one index Sparse[t][s];
// with Spec.MultiHot = K each sample owns K consecutive indices and
// Offsets[s] = s·K. Offsets is shared across tables.
type Batch struct {
	Dense   *tensor.Matrix // batch × NumDense
	Sparse  [][]int        // per table: batch·K indices
	Offsets []int          // bag starts: s·K
	Labels  []float32

	draw streamDraw // the stream stage BatchInto reuses with this batch
}

// streamDraw is BatchInto's stream stage: min(Workers(), tables) executors
// claim tables from next and draw their streams, each through its own
// generator. A stream is seeded by its (iter, table) pair alone, so no bit
// depends on the executor. gens[0] then draws the dense features and labels.
type streamDraw struct {
	d    *Dataset
	iter int
	next atomic.Int64
	gens []Generator
}

// drawStreams is the stream stage's body for the batch in ctx: executor p
// claims tables until none is left.
func drawStreams(ctx any, lo, hi int) {
	b := ctx.(*Batch)
	w := &b.draw
	for p := lo; p < hi; p++ {
		for t := int(w.next.Add(1)) - 1; t < len(b.Sparse); t = int(w.next.Add(1)) - 1 {
			b.Sparse[t] = w.d.IndicesInto(&w.gens[p], b.Sparse[t], w.iter, len(b.Labels), t)
		}
	}
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Labels) }

// Generator is the scratch index-stream generation needs: a single math/rand
// generator re-seeded per stream, and each table's group Zipf built once
// against it. Seeding puts the generator's source in exactly the state
// NewSource(seed) builds, so every draw is the one a fresh generator makes.
// The zero value is ready to use; it binds to the dataset it first draws
// for, and a generator serves one goroutine at a time.
type Generator struct {
	d      *Dataset
	r      *rand.Rand
	zipf   []*rand.Zipf // per table, over its groups
	active []int        // a stream's active groups
}

// bind makes g d's generator, building its scratch unless it already is.
func (g *Generator) bind(d *Dataset) {
	if g.d == d {
		return
	}
	g.d, g.r, g.active = d, rand.New(rand.NewSource(0)), make([]int, d.Spec.ActiveGroups) //nolint:gosec // deterministic synthetic data
	g.zipf = make([]*rand.Zipf, len(d.groups))
	for t, n := range d.groups {
		g.zipf[t] = rand.NewZipf(g.r, d.Spec.ZipfS, d.Spec.ZipfV, uint64(n-1))
	}
}

// Batch deterministically generates batch number iter with the given size,
// into a fresh Batch: BatchInto(nil, iter, size).
func (d *Dataset) Batch(iter, size int) *Batch { return d.BatchInto(nil, iter, size) }

// BatchInto generates batch number iter with the given size into dst,
// reusing its storage and the generator scratch it carries, and returns
// it; a nil dst gets a fresh Batch. The result is the batch Batch(iter,
// size) returns, and once dst has held a batch of this size from this
// dataset, generating into it allocates nothing.
func (d *Dataset) BatchInto(dst *Batch, iter, size int) *Batch {
	if size <= 0 {
		panic("data: non-positive batch size")
	}
	spec := d.Spec
	bag := spec.BagSize()
	b := dst
	if b == nil {
		b = &Batch{}
	}
	b.prepare(d, size)
	for s := range b.Offsets {
		b.Offsets[s] = s * bag
	}
	w := &b.draw
	n := min(tensor.Workers(), len(b.Sparse))
	for len(w.gens) < n {
		w.gens = append(w.gens, Generator{})
	}
	// Bound here, not by the first stream an executor happens to claim: an
	// executor that claims none for many batches would otherwise build its
	// generator's scratch in some later step.
	for p := range w.gens[:n] {
		w.gens[p].bind(d)
	}
	w.d, w.iter = d, iter
	w.next.Store(0)
	tensor.ParallelFor(n, b, drawStreams)

	r := w.gens[0].r
	r.Seed(int64(mix(spec.Seed, uint64(iter), 0xBA7C4)))

	// Dense features: standard normal.
	for i := range b.Dense.Data {
		b.Dense.Data[i] = float32(r.NormFloat64())
	}

	// Labels from the hidden model: a matrix-factorization-style pairwise
	// term (which the DLRM dot interaction can express exactly), a small
	// additive per-index effect, and a linear dense term. Multi-hot bags
	// contribute the mean of their indices' hidden factors.
	var hsum, hvec, hbag [latentDim]float64
	for s := 0; s < size; s++ {
		logit := hiddenBias
		for k := range hsum {
			hsum[k] = 0
		}
		var norms float64
		for t := range b.Sparse {
			for k := range hbag {
				hbag[k] = 0
			}
			var eff float64
			for q := 0; q < bag; q++ {
				idx := b.Sparse[t][s*bag+q]
				eff += indexEffect(spec.Seed, t, idx)
				indexVector(spec.Seed, t, idx, &hvec)
				for k, v := range hvec {
					hbag[k] += v
				}
			}
			logit += eff / float64(bag)
			for k := range hbag {
				v := hbag[k] / float64(bag)
				hsum[k] += v
				norms += v * v
			}
		}
		// Σ_{t<t'} ⟨h_t, h_t'⟩ = (‖Σh‖² − Σ‖h‖²)/2.
		var sumsq float64
		for _, v := range hsum {
			sumsq += v * v
		}
		logit += pairScale * (sumsq - norms) / 2
		for f := 0; f < spec.NumDense; f++ {
			logit += denseWeight(spec.Seed, f) * float64(b.Dense.At(s, f))
		}
		p := 1 / (1 + math.Exp(-logit))
		b.Labels[s] = 0
		if r.Float64() < p {
			b.Labels[s] = 1
		}
	}
	return b
}

// prepare shapes b for a batch of n samples from d, keeping every buffer that
// is large enough.
func (b *Batch) prepare(d *Dataset, n int) {
	spec := d.Spec
	b.Dense = tensor.Reuse(b.Dense, n, spec.NumDense)
	if len(b.Sparse) != spec.NumTables() {
		b.Sparse = make([][]int, spec.NumTables())
	}
	b.Offsets = resize(b.Offsets, n)
	if cap(b.Labels) < n {
		b.Labels = make([]float32, n)
	}
	b.Labels = b.Labels[:n]
}

// resize returns buf with length n, reusing its storage when it fits.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// streamSeed is the seed of table t's index stream of batch iter.
func (d *Dataset) streamSeed(iter, t int) int64 {
	return int64(mix(d.Spec.Seed, uint64(iter), 0x7AB1E0+uint64(t)))
}

// BatchIndices deterministically generates only table t's indices of batch
// iter (size·BagSize of them) into a fresh slice with a fresh source — each
// (iter, table) pair has its own RNG stream, so per-table statistics never
// pay for the other 25 tables. It equals IndicesInto, which Batch composes,
// so BatchIndices(i, n, t) equals Batch(i, n).Sparse[t].
func (d *Dataset) BatchIndices(iter, size, t int) []int {
	spec := d.Spec
	r := rand.New(rand.NewSource(d.streamSeed(iter, t))) //nolint:gosec // deterministic synthetic data
	out := make([]int, size*spec.BagSize())
	d.drawIndices(out, r, rand.NewZipf(r, spec.ZipfS, spec.ZipfV, uint64(d.groups[t]-1)), make([]int, spec.ActiveGroups), t)
	return out
}

// IndicesInto draws table t's index stream of batch iter — BatchIndices(iter,
// size, t) — into dst's storage through g, and returns it. It is the one
// path every reused-generator stream takes (BatchInto's tables, the
// lookahead planner, the access statistics and the reordering profile), and
// once g has drawn for d and dst has held a stream of this size it
// allocates nothing.
func (d *Dataset) IndicesInto(g *Generator, dst []int, iter, size, t int) []int {
	g.bind(d)
	dst = resize(dst, size*d.Spec.BagSize())
	g.r.Seed(d.streamSeed(iter, t))
	d.drawIndices(dst, g.r, g.zipf[t], g.active, t)
	return dst
}

// drawIndices fills out with table t's index stream from r, which is seeded
// for the stream; groupZipf draws from r over t's groups and active is
// ActiveGroups of scratch. The batch concentrates on ActiveGroups hot
// groups with probability Locality and falls back to the global Zipf
// distribution otherwise.
func (d *Dataset) drawIndices(out []int, r *rand.Rand, groupZipf *rand.Zipf, active []int, t int) {
	spec := d.Spec
	rows := spec.TableRows[t]
	for i := range active {
		active[i] = int(groupZipf.Uint64())
	}
	for s := range out {
		var grp int
		if r.Float64() < spec.Locality {
			grp = active[r.Intn(len(active))]
		} else {
			grp = int(groupZipf.Uint64())
		}
		lo := grp * spec.GroupSize
		span := spec.GroupSize
		if lo >= rows {
			lo, span = 0, min(spec.GroupSize, rows)
		} else if lo+span > rows {
			span = rows - lo
		}
		// Intra-group skew (span ≤ GroupSize).
		off := d.intra.sample(r, span)
		ordered := lo + off
		out[s] = int(d.scatter[t][ordered])
	}
}

// zipfGuard is the relative half-width of the band around each boundary
// inside which smallZipf.index asks math.Pow itself. Pow is good to a few
// ulps (2⁻⁵²) and a relative step in u moves u^exp by |exp| times as much,
// so outside the band the comparison and the power cannot disagree.
const zipfGuard = 1.0 / (1 << 40)

// smallZipf draws from P(k) ∝ (1+k)^−s over [0, n), n ≤ len(thr)−1, by the
// continuous Pareto-like inversion k = floor(u^(−1/(s−1)) − 1). The power
// is monotone in u, so k is found by searching precomputed boundaries
// instead of evaluating it.
type smallZipf struct {
	exp float64   // −1/(s−1)
	thr []float64 // thr[j] = (j+1)^−(s−1), decreasing: k ≥ j ⇔ u ≤ thr[j]
}

func newSmallZipf(s float64, max int) smallZipf {
	z := smallZipf{exp: -1 / (s - 1), thr: make([]float64, max+1)}
	for j := range z.thr {
		z.thr[j] = math.Pow(float64(j+1), -(s - 1))
	}
	return z
}

// index returns int(math.Pow(u, exp) − 1) for u in (0, 1) when that lies in
// [0, n), and n otherwise.
func (z smallZipf) index(u float64, n int) int {
	thr := z.thr[:n+1]
	// The largest k with u ≤ thr[k]; thr[0] = 1 always qualifies. Most
	// draws fall below the last boundary (two in three at s = 1.1), so it
	// is compared first.
	k, hi := 0, n
	if u <= thr[n] {
		k = n
	} else {
		hi = n - 1
	}
	for k < hi {
		mid := (k + hi + 1) / 2
		if u <= thr[mid] {
			k = mid
		} else {
			hi = mid - 1
		}
	}
	if (k > 0 && u >= thr[k]*(1-zipfGuard)) || (k < n && u <= thr[k+1]*(1+zipfGuard)) {
		k = min(int(math.Pow(u, z.exp)-1), n) // u^exp is within 2⁻⁴⁰ of k+1 or k+2
	}
	return k
}

// sample draws one index in [0, n). A draw that inverts to n or beyond is
// rejected; the loop terminates quickly because mass concentrates near 0.
func (z smallZipf) sample(r *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		if k := z.index(u, n); k < n {
			return k
		}
		// Fall back to uniform tail occasionally to guarantee progress.
		if r.Float64() < 0.1 {
			return r.Intn(n)
		}
	}
}

// hiddenBias centers label prevalence near a CTR-like rate.
const hiddenBias = -1.0

// latentDim is the dimensionality of hidden per-index vectors driving the
// pairwise label signal.
const latentDim = 4

// pairScale weighs the pairwise interaction term in the logit. With 0-mean
// unit-ish latent vectors it keeps the logit in a learnable range.
const pairScale = 1.5

// indexEffect is the hidden additive contribution of (table, index) to the
// logit, a deterministic pseudo-random value in [-0.6, 0.6].
func indexEffect(seed uint64, table, idx int) float64 {
	h := mix(seed, uint64(table)<<32|uint64(uint32(idx)), 0xEFFEC7)
	return (float64(h>>11)/(1<<53) - 0.5) * 1.2
}

// indexVector fills dst with the hidden latent vector of (table, index),
// entries in [-1, 1].
func indexVector(seed uint64, table, idx int, dst *[latentDim]float64) {
	for k := range dst {
		h := mix(seed, uint64(table)<<40|uint64(uint32(idx)), 0x1A7E47+uint64(k)*0x9E37)
		dst[k] = float64(h>>11)/(1<<52) - 1
	}
}

// denseWeight is the hidden weight of dense feature f in [-0.3, 0.3].
func denseWeight(seed uint64, f int) float64 {
	h := mix(seed, uint64(f), 0xDE45E)
	return (float64(h>>11)/(1<<53) - 0.5) * 0.6
}

// mix is a splitmix64-style hash combiner.
func mix(a, b, c uint64) uint64 {
	return tensor.Mix64(a ^ (b * 0x9e3779b97f4a7c15) ^ (c * 0xbf58476d1ce4e5b9))
}
