package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hw"
)

// cellFloat parses a numeric table cell, stripping unit suffixes.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell, "/s")
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "M")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

// skipUnderRace skips experiment-harness tests when the race detector is
// on: they assert wall-clock performance shapes (and run ~10x slower), so
// under instrumentation they only report the detector's overhead. The
// concurrency they exercise is raced directly by the library packages'
// own -race tests.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing-shape experiment: meaningless under the race detector")
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Run("nonsense", Quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	ids := List()
	if len(ids) < 14 {
		t.Fatalf("registry lists only %d experiments", len(ids))
	}
	for _, want := range []string{"table2", "table3", "table4", "fig4a", "fig4b",
		"fig11", "fig11-t4", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
}

func TestResultFormatting(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.addRow("1", "2")
	r.addNote("n=%d", 3)
	out := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted result missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	skipUnderRace(t)
	r := table2(Quick())
	if len(r.Rows) != 3 {
		t.Fatalf("table2 has %d rows", len(r.Rows))
	}
	// Terabyte full-scale footprint in the paper's ~59 GB regime.
	var tbGB float64
	for _, row := range r.Rows {
		if row[0] == "terabyte" {
			tbGB = cellFloat(t, row[5])
		}
	}
	if tbGB < 45 || tbGB > 75 {
		t.Fatalf("terabyte footprint %.1f GB, want ≈59", tbGB)
	}
}

func TestTable3CompressionAboveOne(t *testing.T) {
	skipUnderRace(t)
	r := table3(Quick())
	for _, row := range r.Rows {
		if c := cellFloat(t, row[3]); c <= 1 {
			t.Fatalf("%s compression %.2f not > 1", row[0], c)
		}
	}
}

func TestFig4aMonotoneToOne(t *testing.T) {
	skipUnderRace(t)
	r := fig4a(Quick())
	for _, row := range r.Rows {
		prev := 0.0
		for _, cell := range row[1:] {
			v := cellFloat(t, cell)
			if v < prev-1e-9 {
				t.Fatalf("%s curve not monotone: %v", row[0], row[1:])
			}
			prev = v
		}
		if prev < 99.9 {
			t.Fatalf("%s curve does not reach 100%%: %v", row[0], row)
		}
		if top5 := cellFloat(t, row[2]); top5 < 30 {
			t.Fatalf("%s top-5%% coverage %.1f lacks power-law skew", row[0], top5)
		}
	}
}

func TestFig4bUniqueBelowBatch(t *testing.T) {
	skipUnderRace(t)
	r := fig4b(Quick())
	sizes := []float64{512, 1024, 2048, 4096, 8192}
	for _, row := range r.Rows {
		prev := 0.0
		for i, cell := range row[1:] {
			v := cellFloat(t, cell)
			if v >= sizes[i] {
				t.Fatalf("%s unique %.0f not below batch %v", row[0], v, sizes[i])
			}
			if v < prev {
				t.Fatalf("%s unique counts not increasing: %v", row[0], row[1:])
			}
			prev = v
		}
	}
}

func TestFig11ELRecWins(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("end-to-end comparison skipped in -short")
	}
	r := fig11(Quick(), hw.TeslaV100())
	for _, row := range r.Rows {
		fae := cellFloat(t, row[5])
		ttrec := cellFloat(t, row[6])
		elrec := cellFloat(t, row[7])
		// EL-Rec beating DLRM is the paper's headline; the margins of the
		// other systems are recorded from clean runs in EXPERIMENTS.md —
		// at quick scale under machine load they can brush 1.0, so the
		// test only rejects clear inversions.
		if elrec <= 1 {
			t.Fatalf("%s: EL-Rec speedup %.2f does not beat DLRM", row[0], elrec)
		}
		if fae <= 0.85 {
			t.Fatalf("%s: FAE speedup %.2f clearly below DLRM", row[0], fae)
		}
		if ttrec <= 0.85 {
			t.Fatalf("%s: TT-Rec speedup %.2f clearly below DLRM", row[0], ttrec)
		}
		if elrec < 0.8*ttrec {
			t.Fatalf("%s: EL-Rec %.2f far below TT-Rec %.2f", row[0], elrec, ttrec)
		}
	}
}

func TestFig13ShapeAndOOM(t *testing.T) {
	skipUnderRace(t)
	r := fig13(Quick())
	if len(r.Rows) != 3 {
		t.Fatalf("fig13 has %d rows", len(r.Rows))
	}
	// Single device: only EL-Rec runs.
	if r.Rows[0][2] != "OOM" || r.Rows[0][3] != "OOM" {
		t.Fatalf("sharded systems should OOM at 1 device: %v", r.Rows[0])
	}
	if cellFloat(t, r.Rows[0][1]) <= 0 {
		t.Fatal("EL-Rec must run on a single device")
	}
	// At 2 and 4 devices everything runs with the same order of magnitude
	// of throughput. (The exact EL-Rec-vs-HugeCTR ratio depends on the GPU
	// GEMM efficiency the CPU substrate cannot reproduce and on machine
	// load; EXPERIMENTS.md records the clean-run comparison.)
	for _, row := range r.Rows[1:] {
		el := cellFloat(t, row[1])
		hc := cellFloat(t, row[2])
		tr := cellFloat(t, row[3])
		if el <= 0 || hc <= 0 || tr <= 0 {
			t.Fatalf("zero throughput in %v", row)
		}
		if el < hc/10 || hc < el/10 {
			t.Fatalf("throughput orders diverge: EL-Rec %.0f vs HugeCTR %.0f at %s devices", el, hc, row[0])
		}
	}
}

func TestFig14AllOptimizationsMatter(t *testing.T) {
	skipUnderRace(t)
	r := fig14(Quick())
	for _, row := range r.Rows {
		full := cellFloat(t, row[1])
		if full <= 0 {
			t.Fatalf("zero throughput: %v", row)
		}
		// At least one disabled variant must cost >5% (the breakdown has
		// signal); no variant should be dramatically faster than full.
		dropReuse := cellFloat(t, row[5])
		dropAgg := cellFloat(t, row[6])
		dropReorder := cellFloat(t, row[7])
		if dropReuse < 5 && dropAgg < 5 && dropReorder < 5 {
			t.Fatalf("no optimization shows impact: %v", row)
		}
		for _, d := range []float64{dropReuse, dropAgg, dropReorder} {
			if d < -20 {
				t.Fatalf("disabled variant much faster than full Eff-TT: %v", row)
			}
		}
	}
}

func TestFig16PipelineBeatsSequential(t *testing.T) {
	skipUnderRace(t)
	r := fig16(Quick())
	if len(r.Rows) != 3 {
		t.Fatalf("fig16 has %d rows", len(r.Rows))
	}
	seqSpd := cellFloat(t, r.Rows[1][2])
	pipeSpd := cellFloat(t, r.Rows[2][2])
	if pipeSpd <= seqSpd {
		t.Fatalf("pipeline %.2fx not above sequential %.2fx", pipeSpd, seqSpd)
	}
	if pipeSpd <= 1 {
		t.Fatalf("pipeline %.2fx does not beat DLRM", pipeSpd)
	}
}

func TestFig17ReuseSpeedsUpLookup(t *testing.T) {
	skipUnderRace(t)
	r := fig17(Quick())
	last := r.Rows[len(r.Rows)-1]
	if spd := cellFloat(t, last[4]); spd <= 1 {
		t.Fatalf("reuse speedup %.2f at largest batch", spd)
	}
	if spd := cellFloat(t, last[5]); spd <= 1 {
		t.Fatalf("total speedup %.2f at largest batch", spd)
	}
	// Speedup grows with batch size (the paper's headline trend): compare
	// largest vs smallest batch.
	first := r.Rows[0]
	if cellFloat(t, last[5]) < cellFloat(t, first[5])*0.8 {
		t.Fatalf("lookup speedup shrank with batch size: %v -> %v", first[5], last[5])
	}
}

func TestFig18AggregationSpeedsUpBackward(t *testing.T) {
	skipUnderRace(t)
	r := fig18(Quick())
	last := r.Rows[len(r.Rows)-1]
	naive := cellFloat(t, last[1])
	agg := cellFloat(t, last[3])
	if agg >= naive {
		t.Fatalf("aggregation did not speed up backward: %.2f vs %.2f", agg, naive)
	}
	if spd := cellFloat(t, last[5]); spd <= 1 {
		t.Fatalf("total backward speedup %.2f", spd)
	}
}

func TestFig12MultiGPUShape(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("multi-GPU comparison skipped in -short")
	}
	r := fig12(Quick())
	d1 := cellFloat(t, r.Rows[0][1])
	e1 := cellFloat(t, r.Rows[1][1])
	d4 := cellFloat(t, r.Rows[0][2])
	e4 := cellFloat(t, r.Rows[1][2])
	// Paper shape: DLRM at least matches EL-Rec on one GPU (TT adds
	// compute); EL-Rec ahead at 4 GPUs (model-parallel comm hurts DLRM).
	if e1 > d1*1.15 {
		t.Fatalf("EL-Rec(1) %.0f should not beat DLRM(1) %.0f clearly", e1, d1)
	}
	if e4 <= d4 {
		t.Fatalf("EL-Rec(4) %.0f should beat DLRM(4) %.0f", e4, d4)
	}
}

func TestTable4AccuracyParity(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("accuracy training skipped in -short")
	}
	r := table4(Quick())
	for _, row := range r.Rows {
		dlrmAcc := cellFloat(t, row[1])
		elrecAcc := cellFloat(t, row[4])
		if dlrmAcc < 55 {
			t.Fatalf("%s: DLRM accuracy %.1f shows no learning", row[0], dlrmAcc)
		}
		if elrecAcc < dlrmAcc-3 {
			t.Fatalf("%s: EL-Rec accuracy %.2f more than 3pp below DLRM %.2f", row[0], elrecAcc, dlrmAcc)
		}
	}
}

func TestFig15CurvesCoincide(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("convergence training skipped in -short")
	}
	r := fig15(Quick())
	first := r.Rows[0]
	last := r.Rows[len(r.Rows)-1]
	for col := 1; col <= 3; col++ {
		if cellFloat(t, last[col]) >= cellFloat(t, first[col]) {
			t.Fatalf("column %d loss did not decrease: %v -> %v", col, first[col], last[col])
		}
	}
	// DLRM and EL-Rec final losses coincide (within 10%).
	dl, el := cellFloat(t, last[1]), cellFloat(t, last[3])
	if el > dl*1.1 {
		t.Fatalf("EL-Rec final loss %.3f far above DLRM %.3f", el, dl)
	}
}

func TestExtHotRatioImprovesSharing(t *testing.T) {
	skipUnderRace(t)
	r := extHotRatio(Quick())
	if len(r.Rows) < 3 {
		t.Fatalf("ext-hotratio has %d rows", len(r.Rows))
	}
	base := cellFloat(t, r.Rows[0][1])
	for _, row := range r.Rows[1:] {
		if v := cellFloat(t, row[1]); v >= base {
			t.Fatalf("hot ratio %s did not reduce unique prefixes: %v >= %v", row[0], v, base)
		}
	}
}

func TestExtTTDepthTradeoff(t *testing.T) {
	skipUnderRace(t)
	r := extTTDepth(Quick())
	if len(r.Rows) != 3 {
		t.Fatalf("ext-ttdepth has %d rows", len(r.Rows))
	}
	// Compression must grow with d.
	prev := 0.0
	for _, row := range r.Rows {
		c := cellFloat(t, row[2])
		if c <= prev {
			t.Fatalf("compression not increasing with d: %v", r.Rows)
		}
		prev = c
	}
}

func TestExtOptimBothConverge(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("training experiment skipped in -short")
	}
	sc := Quick()
	sc.TrainSteps = 150
	r := extOptim(sc)
	first := r.Rows[0]
	last := r.Rows[len(r.Rows)-1]
	for col := 1; col <= 2; col++ {
		if cellFloat(t, last[col]) >= cellFloat(t, first[col]) {
			t.Fatalf("column %d loss did not decrease: %v -> %v", col, first[col], last[col])
		}
	}
}

// TestPipeCacheLookaheadBeatsLC runs the pipecache experiment with and
// without lookahead at quick scale: the oracle cache must raise the
// sequential-schedule hit rate (the deterministic policy counter — the
// pipelined counters shift slightly with apply timing, so they are not
// asserted strictly at this tiny scale), gather fewer bytes, and leave the
// trained loss bit-identical.
func TestPipeCacheLookaheadBeatsLC(t *testing.T) {
	skipUnderRace(t)
	if testing.Short() {
		t.Skip("pipeline experiment skipped in -short")
	}
	cell := func(r *Result, name string) string {
		for _, row := range r.Rows {
			if row[0] == name {
				return row[1]
			}
		}
		t.Fatalf("row %q missing from %v", name, r.Rows)
		return ""
	}
	// The hit-rate gain comes from oracle retention (entries kept past
	// push-visibility until their promised reuse), which needs several
	// windows' worth of steps to show up in the counters.
	base := Quick()
	base.Lookahead = 0
	base.Steps = 24
	la := Quick()
	la.Lookahead = 8
	la.Steps = 24
	rb, rl := pipeCache(base), pipeCache(la)
	if hb, hl := cellFloat(t, cell(rb, "seq_cache_hit_rate")), cellFloat(t, cell(rl, "seq_cache_hit_rate")); hl <= hb {
		t.Fatalf("lookahead hit rate %.4f not above LC baseline %.4f", hl, hb)
	}
	if bb, bl := cellFloat(t, cell(rb, "bytes_prefetched")), cellFloat(t, cell(rl, "bytes_prefetched")); bl >= bb {
		t.Fatalf("lookahead gathered %.0f bytes, baseline %.0f", bl, bb)
	}
	if cellFloat(t, cell(rl, "pinned_rows")) == 0 || cellFloat(t, cell(rl, "windows")) == 0 {
		t.Fatalf("lookahead run recorded no planning activity: %v", rl.Rows)
	}
	if lb, ll := cell(rb, "final_loss"), cell(rl, "final_loss"); lb != ll {
		t.Fatalf("final loss differs: %s vs %s — lookahead changed trained values", lb, ll)
	}
}

// BenchmarkPipecache is the CI smoke hook (`-benchtime=1x`): one quick-scale
// pipecache run per schedule, so the lookahead machinery is exercised on
// every push without a full bench sweep.
func BenchmarkPipecache(b *testing.B) {
	for _, look := range []int{0, 8} {
		b.Run(fmt.Sprintf("lookahead=%d", look), func(b *testing.B) {
			sc := Quick()
			sc.Lookahead = look
			for i := 0; i < b.N; i++ {
				pipeCache(sc)
			}
		})
	}
}
