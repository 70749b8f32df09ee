package data

import (
	"math"
	"math/rand"
	"testing"
)

// sourceEdgeSeeds are the seeds whose folding is easiest to get wrong: zero
// and the multiples of 2³¹−1 (replaced by math/rand's fixed seed), negative
// seeds, the int64 extremes and a seed past 32 bits.
var sourceEdgeSeeds = []int64{
	0, 1, -1, math.MinInt64, math.MaxInt64,
	lcgMod, -lcgMod, 2 * lcgMod, seedFix, 1 << 40,
}

// TestSourceMatchesMathRand is the oracle of the in-tree source: for every
// edge seed, 2 500 raw outputs equal rand.NewSource's, and so do the
// derived draws the dataset makes through rand.New — Float64, Intn,
// NormFloat64 and a Zipf — and the Shuffle Dataset.New scatters with. The
// source is reseeded in place between seeds, as a Generator reseeds it per
// stream.
func TestSourceMatchesMathRand(t *testing.T) {
	var got source
	for _, seed := range sourceEdgeSeeds {
		want := rand.NewSource(seed).(rand.Source64) //nolint:gosec // the oracle
		got.Seed(seed)
		for i := range 2500 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: output %d is %#x, math/rand gives %#x", seed, i, g, w)
			}
		}

		g, w := newRand(seed), rand.New(rand.NewSource(seed)) //nolint:gosec // the oracle
		gz, wz := rand.NewZipf(g, 1.2, 1.5, 999), rand.NewZipf(w, 1.2, 1.5, 999)
		for i := range 1000 {
			if a, b := g.Float64(), w.Float64(); a != b {
				t.Fatalf("seed %d: Float64 %d is %v, math/rand gives %v", seed, i, a, b)
			}
			if a, b := g.Intn(1+i), w.Intn(1+i); a != b {
				t.Fatalf("seed %d: Intn(%d) is %d, math/rand gives %d", seed, 1+i, a, b)
			}
			if a, b := g.NormFloat64(), w.NormFloat64(); a != b {
				t.Fatalf("seed %d: NormFloat64 %d is %v, math/rand gives %v", seed, i, a, b)
			}
			if a, b := gz.Uint64(), wz.Uint64(); a != b {
				t.Fatalf("seed %d: Zipf draw %d is %d, math/rand gives %d", seed, i, a, b)
			}
		}
		gp, wp := make([]int, 300), make([]int, 300)
		for i := range gp {
			gp[i], wp[i] = i, i
		}
		g.Shuffle(len(gp), func(i, j int) { gp[i], gp[j] = gp[j], gp[i] })
		w.Shuffle(len(wp), func(i, j int) { wp[i], wp[j] = wp[j], wp[i] })
		if !equalInts(gp, wp) {
			t.Fatalf("seed %d: Shuffle disagrees with math/rand", seed)
		}
	}
}

// FuzzSourceMatchesMathRand compares the first 1 300 outputs for any seed:
// past two full lag cycles of the 607-word state, so every word Seed wrote
// has fed an output through both the feed and the tap. The committed seeds
// in testdata/fuzz are the edge seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		want := rand.NewSource(seed).(rand.Source64) //nolint:gosec // the oracle
		var got source
		got.Seed(seed)
		for i := range 1300 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: output %d is %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
	})
}

// BenchmarkSourceSeed times one Seed of the in-tree source against
// math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		var s source
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0) //nolint:gosec // the baseline
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
}
