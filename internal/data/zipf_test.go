package data

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// powIndex is the definition smallZipf.index must reproduce: the seed's
// inverse transform, with everything outside [0, n) folded to n (reject).
func powIndex(u, s float64, n int) int {
	k := int(math.Pow(u, -1/(s-1)) - 1)
	if k < 0 || k >= n {
		return n
	}
	return k
}

// TestSmallZipfIndexMatchesPow: the boundary search equals the math.Pow
// inversion for every u — on random draws, on ±2000 ulps around every
// boundary and around both edges of every guard band.
func TestSmallZipfIndexMatchesPow(t *testing.T) {
	draws := 2_000_000 // × 5 exponents = 10⁷ random u
	if testing.Short() {
		draws = 100_000
	}
	const ulps = 2000
	for _, s := range []float64{1.1, 1.15, 1.2, 1.5, 2} {
		z := newSmallZipf(s, 64)
		sizes := []int{2, 3, 17, 63, 64}
		check := func(u float64) {
			for _, n := range sizes {
				if got, want := z.index(u, n), powIndex(u, s, n); got != want {
					t.Fatalf("s=%v n=%d u=%v (%#x): table %d, math.Pow %d", s, n, u, math.Float64bits(u), got, want)
				}
			}
		}
		r := rand.New(rand.NewSource(int64(s * 1000)))
		for i := 0; i < draws; i++ {
			if u := r.Float64(); u != 0 {
				check(u)
			}
		}
		check(1.0 / (1 << 53)) // the smallest draw rand.Float64 can return
		for j := 1; j <= 64; j++ {
			for _, centre := range []float64{z.thr[j], z.thr[j] * (1 - zipfGuard), z.thr[j] * (1 + zipfGuard)} {
				lo, hi := centre, centre
				check(centre)
				for i := 0; i < ulps; i++ {
					lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
					check(lo)
					if hi < 1 {
						check(hi)
					}
				}
			}
		}
	}
}

// fold is an FNV-1a sum over 64-bit words.
type fold struct{ h hash.Hash64 }

func (f fold) put(v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	f.h.Write(w[:])
}

func (f fold) ints(xs []int) {
	for _, x := range xs {
		f.put(uint64(x))
	}
}

func (f fold) floats(xs []float32) {
	for _, x := range xs {
		f.put(uint64(math.Float32bits(x)))
	}
}

// TestGeneratedStreamGolden pins the generated stream of the three dataset
// presets to hashes recorded when the generator moved onto tensor.RNG and
// keyed permutations: every field of four batches through Batch, and every
// table of one more batch through BatchIndices.
func TestGeneratedStreamGolden(t *testing.T) {
	golden := map[string][2]uint64{
		"avazu":    {0x2a7ce2a38613d3f5, 0x221d4e1080b7feba},
		"kaggle":   {0x552589eeeacf3f29, 0xb624b30f2cedf14f},
		"terabyte": {0x74e81c16c46a31c9, 0x0cc7bb2359908b26},
	}
	for name, want := range golden {
		spec, err := SpecByName(name, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		batches, indices := fold{fnv.New64a()}, fold{fnv.New64a()}
		for _, iter := range []int{0, 1, 17, 4095} {
			b := d.Batch(iter, 256)
			batches.floats(b.Dense.Data)
			for _, tbl := range b.Sparse {
				batches.ints(tbl)
			}
			batches.ints(b.Offsets)
			batches.floats(b.Labels)
		}
		for tbl := 0; tbl < spec.NumTables(); tbl++ {
			indices.ints(d.BatchIndices(9, 512, tbl))
		}
		if got := [2]uint64{batches.h.Sum64(), indices.h.Sum64()}; got != want {
			t.Errorf("%s: stream hashes {%#x, %#x}, recorded {%#x, %#x}", name, got[0], got[1], want[0], want[1])
		}
	}
}

// rngSource is a rand.Source64 over a tensor.RNG whose Int63 is the top 53
// bits of a draw shifted up by 10, so rand.Float64 over it (Int63()/2⁶³) is
// the RNG's Float64 (top 53 bits/2⁵³), draw for draw and exactly.
type rngSource struct{ r *tensor.RNG }

func (s rngSource) Int63() int64    { return int64(s.r.Uint64() >> 11 << 10) }
func (s rngSource) Uint64() uint64  { return s.r.Uint64() }
func (s rngSource) Seed(seed int64) { *s.r = *tensor.NewRNG(uint64(seed)) }

// TestZipfMatchesMathRand: the group Zipf is math/rand's rejection-inversion
// sampler, so over the same uniforms it draws math/rand's values, for each
// preset's exponent and table sizes from one group to 10⁶.
func TestZipfMatchesMathRand(t *testing.T) {
	for _, s := range []float64{1.1, 1.15, 1.2, 2} {
		for _, imax := range []int{0, 1, 2, 63, 17_935, 1_000_000} {
			z := newZipf(s, 2, imax)
			got := tensor.NewRNG(uint64(imax) + 1)
			ref := rand.NewZipf(rand.New(rngSource{tensor.NewRNG(uint64(imax) + 1)}), s, 2, uint64(imax)) //nolint:gosec // the oracle
			for i := 0; i < 20_000; i++ {
				if g, w := z.sample(got), int(ref.Uint64()); g != w {
					t.Fatalf("s=%v imax=%d draw %d: %d, math/rand %d", s, imax, i, g, w)
				}
			}
		}
	}
}
