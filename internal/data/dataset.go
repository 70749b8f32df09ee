package data

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/tensor"
)

// Dataset is a deterministic synthetic dataset: Batch(i, size) always
// produces the same batch for the same spec, independent of generation
// order, so every training system in a comparison sees identical data. It
// holds O(1) state per table: every stream is a splitmix64 stream
// (tensor.RNG) keyed by its (seed, iteration, table), and every table's
// scatter of its hidden groups over the id space is a keyed permutation
// computed per index.
type Dataset struct {
	Spec Spec
	// tables[t] is table t's group distribution and scatter permutation.
	tables []tableGen
	// intra draws an index's offset inside its group.
	intra smallZipf
}

// tableGen is what drawing one table's indices needs beyond the spec.
type tableGen struct {
	// groups draws a hidden group of the table.
	groups zipf
	// scatter maps "ordered" positions (where hidden groups are contiguous)
	// to actual row ids.
	scatter permutation
}

// New builds a Dataset from a validated spec.
func New(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Dataset{Spec: spec, intra: newSmallZipf(spec.ZipfS, spec.GroupSize)}
	d.tables = make([]tableGen, spec.NumTables())
	for t, rows := range spec.TableRows {
		groups := max(rows/spec.GroupSize, 1)
		d.tables[t] = tableGen{
			groups:  newZipf(spec.ZipfS, spec.ZipfV, groups-1),
			scatter: newPermutation(rows, mix(spec.Seed, uint64(t), 0x5CA77E2)),
		}
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

	draw streamDraw // the stream stage BatchFrom reuses with this batch
}

// streamDraw is BatchFrom's stream stage: min(Workers(), len(todo))
// executors claim the tables in todo — those no plan holds a stream for —
// from next and draw their streams, each through its own generator. A stream
// is seeded by its (iter, table) pair alone, so no bit depends on the
// executor. gens[0] then draws the dense features and labels.
type streamDraw struct {
	d    *Dataset
	iter int
	todo []int
	next atomic.Int64
	gens []Generator
}

// drawStreams is the stream stage's body for the batch in ctx: executor p
// claims tables until none is left.
func drawStreams(ctx any, lo, hi int) {
	b := ctx.(*Batch)
	w := &b.draw
	for p := lo; p < hi; p++ {
		for i := int(w.next.Add(1)) - 1; i < len(w.todo); i = int(w.next.Add(1)) - 1 {
			t := w.todo[i]
			b.Sparse[t] = w.d.IndicesInto(&w.gens[p], b.Sparse[t], w.iter, len(b.Labels), t)
		}
	}
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Labels) }

// Generator is the scratch index-stream generation needs: the stream's RNG,
// re-seeded per stream (one word of state), and a stream's active groups.
// The zero value is ready to use; it binds to the dataset it first draws
// for, and a generator serves one goroutine at a time. Every stream — a
// batch's, the lookahead planner's, the statistics' and BatchIndices' — is
// drawn through one.
type Generator struct {
	d      *Dataset
	r      tensor.RNG
	active []int // a stream's active groups
}

// bind makes g d's generator, building its scratch unless it already is.
func (g *Generator) bind(d *Dataset) {
	if g.d == d {
		return
	}
	g.d, g.active = d, make([]int, d.Spec.ActiveGroups)
}

// Batch deterministically generates batch number iter with the given size,
// into a fresh Batch: BatchInto(nil, iter, size).
func (d *Dataset) Batch(iter, size int) *Batch { return d.BatchInto(nil, iter, size) }

// BatchInto generates batch number iter with the given size into dst,
// reusing its storage and the generator scratch it carries, and returns
// it; a nil dst gets a fresh Batch. The result is the batch Batch(iter,
// size) returns, and once dst has held a batch of this size from this
// dataset, generating into it allocates nothing. It is BatchFrom with no
// plan.
func (d *Dataset) BatchInto(dst *Batch, iter, size int) *Batch {
	return d.BatchFrom(dst, nil, iter, size)
}

// BatchFrom is BatchInto for a batch a lookahead window planned: each table
// plan holds a stream for (see Lookahead.Advance) is copied from the plan
// instead of being drawn a second time, and only the other tables are drawn.
// plan must cover iteration iter at this batch size, and its source must
// draw this dataset's streams (a nil plan holds none); the batch is the one
// BatchInto generates, and the plan stays the caller's, untouched.
func (d *Dataset) BatchFrom(dst *Batch, plan *WindowPlan, iter, size int) *Batch {
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
	held := plan.tablesAt(iter, size)
	for ti, t := range held {
		b.Sparse[t] = append(b.Sparse[t][:0], plan.Access(ti, iter).stream...)
	}
	w.todo = w.todo[:0]
	for t := range b.Sparse {
		if !slices.Contains(held, t) {
			w.todo = append(w.todo, t)
		}
	}
	n := min(tensor.Workers(), len(w.todo))
	gens := max(n, 1) // gens[0] also draws the dense features and labels
	for len(w.gens) < gens {
		w.gens = append(w.gens, Generator{})
	}
	// Bound here, not by the first stream an executor happens to claim: an
	// executor that claims none for many batches would otherwise build its
	// generator's scratch in some later step.
	for p := range w.gens[:gens] {
		w.gens[p].bind(d)
	}
	w.d, w.iter = d, iter
	w.next.Store(0)
	tensor.ParallelFor(n, b, drawStreams)

	r := &w.gens[0].r
	*r = *tensor.NewRNG(mix(spec.Seed, uint64(iter), 0xBA7C4))

	// Dense features: standard normal.
	r.FillNormal(b.Dense.Data, 1)

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
func (d *Dataset) streamSeed(iter, t int) uint64 {
	return mix(d.Spec.Seed, uint64(iter), 0x7AB1E0+uint64(t))
}

// BatchIndices deterministically generates only table t's indices of batch
// iter (size·BagSize of them) into a fresh slice through a fresh Generator —
// each (iter, table) pair has its own RNG stream, so per-table statistics
// never pay for the other 25 tables. It is IndicesInto, which Batch
// composes, so BatchIndices(i, n, t) equals Batch(i, n).Sparse[t].
func (d *Dataset) BatchIndices(iter, size, t int) []int {
	return d.IndicesInto(new(Generator), nil, iter, size, t)
}

// IndicesInto draws table t's index stream of batch iter — BatchIndices(iter,
// size, t) — into dst's storage through g, and returns it. It is the one
// path every stream takes (BatchFrom's tables, the lookahead planner, the
// access statistics, the reordering profile and BatchIndices), and once g
// has drawn for d and dst has held a stream of this size it allocates
// nothing.
func (d *Dataset) IndicesInto(g *Generator, dst []int, iter, size, t int) []int {
	g.bind(d)
	dst = resize(dst, size*d.Spec.BagSize())
	g.r = *tensor.NewRNG(d.streamSeed(iter, t))
	d.drawIndices(dst, g, t)
	return dst
}

// drawIndices fills out with table t's index stream from g, whose generator
// is seeded for the stream. The batch concentrates on ActiveGroups hot
// groups with probability Locality and falls back to the global Zipf
// distribution over t's groups otherwise.
func (d *Dataset) drawIndices(out []int, g *Generator, t int) {
	spec := d.Spec
	rows := spec.TableRows[t]
	tg := &d.tables[t]
	r, active := &g.r, g.active
	for i := range active {
		active[i] = tg.groups.sample(r)
	}
	for s := range out {
		var grp int
		if r.Float64() < spec.Locality {
			grp = active[r.Intn(len(active))]
		} else {
			grp = tg.groups.sample(r)
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
		out[s] = tg.scatter.at(lo + off)
	}
}

// zipf draws k ∈ [0, imax] with P(k) ∝ (v+k)^−s by Hörmann and Derflinger's
// rejection-inversion ("Rejection-inversion to generate variates from
// monotone discrete distributions", ACM TOMACS 1996): math/rand's Zipf
// algorithm, constant for constant, drawing its uniforms from a tensor.RNG.
// It holds no generator, so one value serves every stream of its table.
type zipf struct {
	v, q, s                 float64
	oneMinusQ, oneMinusQInv float64
	hxm, hx0MinusHxm        float64
}

// newZipf returns the distribution over [0, imax]; s > 1 and v ≥ 1 (Spec
// validates both).
func newZipf(s, v float64, imax int) zipf {
	z := zipf{v: v, q: s, oneMinusQ: 1 - s, oneMinusQInv: 1 / (1 - s)}
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0MinusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1)))
	return z
}

// h is the integral of the hat function, (v+x)^(1−q)/(1−q).
func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusQ*math.Log(z.v+x)) * z.oneMinusQInv
}

// hinv is h's inverse.
func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneMinusQInv*math.Log(z.oneMinusQ*x)) - z.v
}

// sample draws one value from r.
func (z *zipf) sample(r *tensor.RNG) int {
	for {
		ur := z.hxm + r.Float64()*z.hx0MinusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s || ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return int(k)
		}
	}
}

// permutation is a keyed pseudo-random permutation of [0, n): a four-round
// unbalanced Feistel network over the smallest bit width w with 2^w ≥ n,
// restricted to [0, n) by cycle walking — x is encrypted again while it
// lands outside (Black and Rogaway, "Ciphers with arbitrary finite
// domains", CT-RSA 2002). A bijection of [0, 2^w) restricted this way is a
// bijection of [0, n), and since 2^w < 2n a value takes fewer than two
// encryptions on average. It is four words of key, not n of table.
type permutation struct {
	n uint64
	// x's low half is lo = ⌈w/2⌉ bits wide and its high half ⌊w/2⌋; a
	// round's hash is shifted right by 64 − the width of the half it
	// changes.
	lo, loShift, hiShift uint
	keys                 [4]uint64
}

// newPermutation returns the permutation of [0, n) keyed by key.
func newPermutation(n int, key uint64) permutation {
	w := uint(0)
	for uint64(1)<<w < uint64(n) {
		w++
	}
	p := permutation{n: uint64(n), lo: w - w/2, loShift: 64 - (w - w/2), hiShift: 64 - w/2}
	r := tensor.NewRNG(key)
	for i := range p.keys {
		p.keys[i] = r.Uint64()
	}
	return p
}

// at returns the image of i ∈ [0, n). Each round replaces one half with
// itself XOR a keyed multiplicative hash of the other: the top bits of
// (x XOR k)·(k | 1), as wide as the half it changes (a zero-width half
// stays 0, since a shift by 64 is 0).
func (p *permutation) at(i int) int {
	k := &p.keys
	for x := uint64(i); ; {
		l, h := x&(1<<p.lo-1), x>>p.lo
		h ^= ((l ^ k[0]) * (k[0] | 1)) >> p.hiShift
		l ^= ((h ^ k[1]) * (k[1] | 1)) >> p.loShift
		h ^= ((l ^ k[2]) * (k[2] | 1)) >> p.hiShift
		l ^= ((h ^ k[3]) * (k[3] | 1)) >> p.loShift
		if x = h<<p.lo | l; x < p.n {
			return int(x)
		}
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
	// is compared first. Below it the search halves [k, k+size) without a
	// data-dependent branch, so a random u costs no mispredictions: u and
	// the thresholds are non-negative, so their bits, below 2⁶³, order as
	// they do, and u ≤ thr[k+half] exactly when the difference of the bits
	// has its sign clear.
	k := n
	if u > thr[n] {
		ub, size := int64(math.Float64bits(u)), n
		k = 0
		for size > 1 {
			half := size / 2
			k += half &^ int((int64(math.Float64bits(thr[k+half]))-ub)>>63)
			size -= half
		}
	}
	if (k > 0 && u >= thr[k]*(1-zipfGuard)) || (k < n && u <= thr[k+1]*(1+zipfGuard)) {
		k = min(int(math.Pow(u, z.exp)-1), n) // u^exp is within 2⁻⁴⁰ of k+1 or k+2
	}
	return k
}

// sample draws one index in [0, n). A draw that inverts to n or beyond is
// rejected; the loop terminates quickly because mass concentrates near 0.
func (z smallZipf) sample(r *tensor.RNG, n int) int {
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
