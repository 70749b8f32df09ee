package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// qualityBaseline is the quality experiment's artifact at the commit whose
// generator the gate holds later changes to (elrec-bench -exp quality -scale
// quick, renamed from BENCH_quality.json).
var qualityBaseline = filepath.Join("..", "..", "results", "fb6cb74+quality", "xeon-6-143-2vcpu", "quality.json")

// qualityGapCols are the gap columns of the quality rows, in qualityGaps'
// order.
var qualityGapCols = []int{4, 7, 10}

// qualitySlack is how many standard errors of a difference of two S-seed
// means the gate allows: the mean gap of a change that moves bits is a
// fresh S-seed estimate, so it differs from the baseline's by √2 standard
// errors of one mean at one sigma.
const qualitySlack = 3

// accParityPP is TestTable4AccuracyParity's bound: EL-Rec at most 3 points
// below DLRM. The gate's accuracy floor is never lower.
const accParityPP = 3

// qualityGapsByDataset collects the per-seed gap columns of a quality
// result's rows: dataset → metric → one gap per seed, in seed order.
func qualityGapsByDataset(t *testing.T, rows [][]string) map[string][][]float64 {
	t.Helper()
	out := map[string][][]float64{}
	for _, row := range rows {
		if _, err := strconv.Atoi(row[1]); err != nil {
			continue // the mean and ci95 rows
		}
		g := out[row[0]]
		if g == nil {
			g = make([][]float64, len(qualityGapCols))
		}
		for m, c := range qualityGapCols {
			g[m] = append(g[m], cellFloat(t, row[c]))
		}
		out[row[0]] = g
	}
	return out
}

// stdDev returns the sample standard deviation of xs (n−1 denominator).
func stdDev(xs []float64) float64 {
	m := meanOf(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// TestQualityGate trains the quality experiment's seeds and fails when a
// dataset's mean paired gap (EL-Rec − DLRM) in accuracy, AUC or log loss
// leaves the band the committed baseline's seed spread allows:
// baseline mean ± qualitySlack·√(2/S)·sd, with sd the baseline's per-seed
// standard deviation of that gap. The accuracy band's floor is never below
// TestTable4AccuracyParity's −3 points.
func TestQualityGate(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("quality training skipped in -short")
	}
	raw, err := os.ReadFile(qualityBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var base struct{ Rows [][]string }
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	want := qualityGapsByDataset(t, base.Rows)
	got := qualityGapsByDataset(t, quality(Quick()).Rows)
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("baseline has %d datasets, this run %d, want 3 each", len(want), len(got))
	}
	for name, bg := range want {
		for m, metric := range qualityGaps {
			b, g := bg[m], got[name][m]
			if len(g) != len(b) {
				t.Fatalf("%s: %d seeds, baseline %d", name, len(g), len(b))
			}
			half := qualitySlack * math.Sqrt(2/float64(len(b))) * stdDev(b)
			lo, hi := meanOf(b)-half, meanOf(b)+half
			if m == 0 {
				lo = max(lo, -accParityPP)
			}
			mean := meanOf(g)
			t.Logf("%s %s: mean gap %.5f, baseline %.5f, band [%.5f, %.5f]", name, metric, mean, meanOf(b), lo, hi)
			if mean < lo || mean > hi {
				t.Errorf("%s: mean %s gap EL-Rec − DLRM %.5f leaves [%.5f, %.5f] (baseline %.5f over seeds %v)",
					name, metric, mean, lo, hi, meanOf(b), qualitySeeds)
			}
		}
	}
}
